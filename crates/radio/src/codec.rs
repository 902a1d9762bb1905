//! On-disk forms of radio-layer records.
//!
//! Covers both the analyzer-visible QxDM log streams ([`PduRecord`],
//! [`StatusRecord`], [`RrcTransition`]) and the evaluation-only ground
//! truth ([`PduEvent`]: the QxDM record plus coverage). The two serialize through
//! *different* artifact entry points ([`write_qxdm`] vs
//! [`write_pdu_truth`]) so a bundle can list them under different manifest
//! classes.
//!
//! RRC transitions are rare and stored as `trace::Codec` rows. The PDU,
//! STATUS and truth streams are `trace::column` logs (a count, one
//! delta-varint stamp column, then length-framed columns):
//!
//! | stream | columns, in order                                             |
//! |--------|---------------------------------------------------------------|
//! | PDU    | `dir` (run-length), `sn` (zigzag delta per direction), `payload_len` (run-length), `first2` (raw), LI (run-length: 0 absent, else 1 + LI), poll/retx bits (run-length: poll + 2 × retx) |
//! | truth  | the PDU columns of each row's [`PduRecord`], then `covers_len` (run-length), cover packet id (zigzag delta per direction), cover offset (varint), unused-slots flag (run-length), unused slots (varints, only when one is non-zero) |
//! | STATUS | `data_dir` (run-length), `acks_sn` (zigzag delta per direction) |
//!
//! The long-jump mapper (§5.4.2) reads only the PDU stream's stamp, `dir`,
//! `sn`, `first2` and LI; the layout keeps each of those a separate column.

use trace::column::{decode_log, encode_log, ColumnDecoder, ColumnEncoder, RleReader, RleWriter};
use trace::{Codec, Reader, TraceError, Writer};

use crate::qxdm::{PduRecord, QxdmLog, StatusRecord};
use crate::rlc::{PduCoverage, PduEvent};
use crate::rrc::{RrcState, RrcTransition};
use netstack::codec::{direction_from_tag, direction_tag};
use simcore::RecordLog;

/// File magic of a persisted QxDM diagnostic log.
pub const QXDM_MAGIC: &[u8; 4] = b"QXDM";
/// File magic of the persisted ground-truth PDU stream.
pub const TRUTH_MAGIC: &[u8; 4] = b"QTRU";

impl Codec for RrcState {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self {
            RrcState::Dch => 0,
            RrcState::Fach => 1,
            RrcState::Pch => 2,
            RrcState::LteContinuous => 3,
            RrcState::LteShortDrx => 4,
            RrcState::LteLongDrx => 5,
            RrcState::LteIdle => 6,
        });
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(match r.u8()? {
            0 => RrcState::Dch,
            1 => RrcState::Fach,
            2 => RrcState::Pch,
            3 => RrcState::LteContinuous,
            4 => RrcState::LteShortDrx,
            5 => RrcState::LteLongDrx,
            6 => RrcState::LteIdle,
            other => return Err(TraceError::Corrupt(format!("bad RrcState tag {other}"))),
        })
    }
}

impl Codec for RrcTransition {
    fn encode(&self, w: &mut Writer) {
        self.from.encode(w);
        self.to.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(RrcTransition {
            from: RrcState::decode(r)?,
            to: RrcState::decode(r)?,
        })
    }
}

/// Per-direction previous value of a zigzag-delta `u32` column.
type PerDir = [u32; 2];

/// Column encoder of the QxDM [`PduRecord`] stream; the ground-truth
/// stream starts with the same columns.
#[derive(Default)]
struct PduColumns {
    sn_prev: PerDir,
    dir: RleWriter,
    sn: Writer,
    len: RleWriter,
    first2: Writer,
    li: RleWriter,
    bits: RleWriter,
}

impl ColumnEncoder<PduRecord> for PduColumns {
    fn push(&mut self, p: &PduRecord) {
        let d = direction_tag(p.dir);
        self.dir.push(d);
        self.sn.delta32(&mut self.sn_prev[d as usize], p.sn);
        self.len.push(u64::from(p.payload_len));
        self.first2.bytes(&p.first2);
        self.li.push(p.li.map_or(0, |li| 1 + u64::from(li)));
        self.bits
            .push(p.poll as u64 | (p.retransmission as u64) << 1);
    }

    fn finish(self, w: &mut Writer) {
        self.dir.finish(w);
        w.column(&self.sn.finish());
        self.len.finish(w);
        w.column(&self.first2.finish());
        self.li.finish(w);
        self.bits.finish(w);
    }
}

/// Column decoder of the QxDM [`PduRecord`] stream.
struct PduColumnsReader<'a> {
    sn_prev: PerDir,
    dir: RleReader<'a>,
    sn: Reader<'a>,
    len: RleReader<'a>,
    first2: Reader<'a>,
    li: RleReader<'a>,
    bits: RleReader<'a>,
}

impl<'a> ColumnDecoder<'a, PduRecord> for PduColumnsReader<'a> {
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError> {
        Ok(PduColumnsReader {
            sn_prev: PerDir::default(),
            dir: RleReader::open(r, 1)?,
            sn: r.column()?,
            len: RleReader::open(r, u64::from(u16::MAX))?,
            first2: r.column()?,
            li: RleReader::open(r, 1 + u64::from(u16::MAX))?,
            bits: RleReader::open(r, 3)?,
        })
    }

    fn next(&mut self) -> Result<PduRecord, TraceError> {
        let d = self.dir.read()?;
        let sn = self.sn.delta32(&mut self.sn_prev[d as usize])?;
        let payload_len = self.len.read()? as u16;
        let first2 = self.first2.take(2)?;
        let li = self.li.read()?;
        let bits = self.bits.read()?;
        Ok(PduRecord {
            dir: direction_from_tag(d),
            sn,
            payload_len,
            first2: [first2[0], first2[1]],
            li: li.checked_sub(1).map(|li| li as u16),
            poll: bits & 1 != 0,
            retransmission: bits & 2 != 0,
        })
    }

    fn finish(self) -> Result<(), TraceError> {
        self.dir.finish()?;
        self.sn.expect_end()?;
        self.len.finish()?;
        self.first2.expect_end()?;
        self.li.finish()?;
        self.bits.finish()
    }
}

/// Column encoder of the ground-truth [`PduEvent`] stream: the PDU
/// columns of each row's record, then the coverage columns.
#[derive(Default)]
struct TruthColumns {
    pdu: PduColumns,
    id_prev: [u64; 2],
    covers_len: RleWriter,
    cover_id: Writer,
    cover_off: Writer,
    dirty: RleWriter,
    unused: Writer,
}

impl ColumnEncoder<PduEvent> for TruthColumns {
    fn push(&mut self, ev: &PduEvent) {
        self.pdu.push(&ev.pdu);
        let d = direction_tag(ev.pdu.dir) as usize;
        let used = (ev.covers_len as usize).min(ev.covers.len());
        self.covers_len.push(u64::from(ev.covers_len));
        for &(id, off) in &ev.covers[..used] {
            self.cover_id.delta(&mut self.id_prev[d], id);
            self.cover_off.varint(u64::from(off));
        }
        let rest = &ev.covers[used..];
        let dirty = rest.iter().any(|&c| c != (0, 0));
        self.dirty.push(dirty as u64);
        if dirty {
            for &(id, off) in rest {
                self.unused.varint(id);
                self.unused.varint(u64::from(off));
            }
        }
    }

    fn finish(self, w: &mut Writer) {
        self.pdu.finish(w);
        self.covers_len.finish(w);
        w.column(&self.cover_id.finish());
        w.column(&self.cover_off.finish());
        self.dirty.finish(w);
        w.column(&self.unused.finish());
    }
}

/// Column decoder of the ground-truth [`PduEvent`] stream.
struct TruthColumnsReader<'a> {
    pdu: PduColumnsReader<'a>,
    id_prev: [u64; 2],
    covers_len: RleReader<'a>,
    cover_id: Reader<'a>,
    cover_off: Reader<'a>,
    dirty: RleReader<'a>,
    unused: Reader<'a>,
}

impl<'a> ColumnDecoder<'a, PduEvent> for TruthColumnsReader<'a> {
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError> {
        Ok(TruthColumnsReader {
            pdu: PduColumnsReader::open(r)?,
            id_prev: [0; 2],
            covers_len: RleReader::open(r, 2)?,
            cover_id: r.column()?,
            cover_off: r.column()?,
            dirty: RleReader::open(r, 1)?,
            unused: r.column()?,
        })
    }

    fn next(&mut self) -> Result<PduEvent, TraceError> {
        let pdu = self.pdu.next()?;
        let d = direction_tag(pdu.dir) as usize;
        let covers_len = self.covers_len.read()? as u8;
        let mut covers: PduCoverage = [(0, 0); 2];
        let used = covers_len as usize;
        for c in &mut covers[..used] {
            *c = (
                self.cover_id.delta(&mut self.id_prev[d])?,
                self.cover_off.varint_max(u64::from(u32::MAX))? as u32,
            );
        }
        if self.dirty.read()? == 1 {
            for c in &mut covers[used..] {
                *c = (
                    self.unused.varint()?,
                    self.unused.varint_max(u64::from(u32::MAX))? as u32,
                );
            }
            // An encoder stores the unused slots only when one is non-zero.
            if covers[used..].iter().all(|&c| c == (0, 0)) {
                return Err(TraceError::Corrupt(
                    "stored unused coverage slots are all zero".into(),
                ));
            }
        }
        Ok(PduEvent {
            pdu,
            covers,
            covers_len,
        })
    }

    fn finish(self) -> Result<(), TraceError> {
        self.pdu.finish()?;
        self.covers_len.finish()?;
        self.cover_id.expect_end()?;
        self.cover_off.expect_end()?;
        self.dirty.finish()?;
        self.unused.expect_end()
    }
}

/// Column encoder of the QxDM [`StatusRecord`] stream.
#[derive(Default)]
struct StatusColumns {
    acks_prev: PerDir,
    data_dir: RleWriter,
    acks_sn: Writer,
}

impl ColumnEncoder<StatusRecord> for StatusColumns {
    fn push(&mut self, s: &StatusRecord) {
        let d = direction_tag(s.data_dir);
        self.data_dir.push(d);
        self.acks_sn
            .delta32(&mut self.acks_prev[d as usize], s.acks_sn);
    }
    fn finish(self, w: &mut Writer) {
        self.data_dir.finish(w);
        w.column(&self.acks_sn.finish());
    }
}

/// Column decoder of the QxDM [`StatusRecord`] stream.
struct StatusColumnsReader<'a> {
    acks_prev: PerDir,
    data_dir: RleReader<'a>,
    acks_sn: Reader<'a>,
}

impl<'a> ColumnDecoder<'a, StatusRecord> for StatusColumnsReader<'a> {
    fn open(r: &mut Reader<'a>) -> Result<Self, TraceError> {
        Ok(StatusColumnsReader {
            acks_prev: PerDir::default(),
            data_dir: RleReader::open(r, 1)?,
            acks_sn: r.column()?,
        })
    }
    fn next(&mut self) -> Result<StatusRecord, TraceError> {
        let d = self.data_dir.read()?;
        Ok(StatusRecord {
            data_dir: direction_from_tag(d),
            acks_sn: self.acks_sn.delta32(&mut self.acks_prev[d as usize])?,
        })
    }
    fn finish(self) -> Result<(), TraceError> {
        self.data_dir.finish()?;
        self.acks_sn.expect_end()
    }
}

impl Codec for QxdmLog {
    fn encode(&self, w: &mut Writer) {
        self.rrc.encode(w);
        encode_log::<_, PduColumns>(&self.pdus, w);
        encode_log::<_, StatusColumns>(&self.statuses, w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(QxdmLog {
            rrc: RecordLog::decode(r)?,
            pdus: decode_log::<_, PduColumnsReader>(r)?,
            statuses: decode_log::<_, StatusColumnsReader>(r)?,
        })
    }
}

/// Serialize a QxDM diagnostic log (RRC + PDU + STATUS streams) to its
/// on-disk form.
pub fn write_qxdm(log: &QxdmLog) -> Vec<u8> {
    trace::encode_artifact(QXDM_MAGIC, trace::FORMAT_VERSION, log)
}

/// Parse a QxDM log produced by [`write_qxdm`].
pub fn read_qxdm(bytes: &[u8]) -> Result<QxdmLog, TraceError> {
    trace::decode_artifact(bytes, QXDM_MAGIC, trace::FORMAT_VERSION)
}

/// Serialize the ground-truth PDU stream (evaluation only).
pub fn write_pdu_truth(truth: &RecordLog<PduEvent>) -> Vec<u8> {
    let mut w = Writer::with_magic(TRUTH_MAGIC, trace::FORMAT_VERSION);
    encode_log::<_, TruthColumns>(truth, &mut w);
    w.finish()
}

/// Parse the ground-truth PDU stream produced by [`write_pdu_truth`].
pub fn read_pdu_truth(bytes: &[u8]) -> Result<RecordLog<PduEvent>, TraceError> {
    let mut r = Reader::open(bytes, TRUTH_MAGIC, trace::FORMAT_VERSION)?;
    let truth = decode_log::<_, TruthColumnsReader>(&mut r)?;
    r.expect_end()?;
    Ok(truth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::pcap::Direction;
    use simcore::SimTime;

    #[test]
    fn qxdm_log_round_trips() {
        let mut log = QxdmLog::default();
        log.rrc.push(
            SimTime::from_micros(1),
            RrcTransition {
                from: RrcState::Pch,
                to: RrcState::Dch,
            },
        );
        log.pdus.push(
            SimTime::from_micros(2),
            PduRecord {
                dir: Direction::Downlink,
                sn: 4095,
                payload_len: 40,
                first2: [0x45, 6],
                li: Some(12),
                poll: true,
                retransmission: false,
            },
        );
        log.statuses.push(
            SimTime::from_micros(3),
            StatusRecord {
                data_dir: Direction::Uplink,
                acks_sn: 4095,
            },
        );
        let bytes = write_qxdm(&log);
        assert_eq!(read_qxdm(&bytes).unwrap(), log);
        // A truth file must not parse as a QxDM log (different magic).
        assert!(matches!(
            read_qxdm(&write_pdu_truth(&RecordLog::new())),
            Err(TraceError::BadMagic(_))
        ));
    }

    #[test]
    fn pdu_truth_round_trips_with_coverage() {
        let mut truth: RecordLog<PduEvent> = RecordLog::new();
        truth.push(
            SimTime::from_micros(9),
            PduEvent {
                pdu: PduRecord {
                    dir: Direction::Uplink,
                    sn: 7,
                    payload_len: 80,
                    first2: [1, 2],
                    li: Some(40),
                    poll: false,
                    retransmission: true,
                },
                covers: [(3, 40), (4, 40)],
                covers_len: 2,
            },
        );
        let bytes = write_pdu_truth(&truth);
        assert_eq!(read_pdu_truth(&bytes).unwrap(), truth);
    }

    #[test]
    fn stored_unused_slots_must_be_non_zero() {
        let mut truth: RecordLog<PduEvent> = RecordLog::new();
        truth.push(
            SimTime::from_micros(1),
            PduEvent {
                pdu: PduRecord {
                    dir: Direction::Downlink,
                    sn: 1,
                    payload_len: 40,
                    first2: [0, 0],
                    li: None,
                    poll: false,
                    retransmission: false,
                },
                covers: [(3, 0), (0, 1)],
                covers_len: 1,
            },
        );
        let mut bytes = write_pdu_truth(&truth);
        assert_eq!(read_pdu_truth(&bytes).unwrap(), truth);
        // The last column holds the unused slot (0, 1) as two varints;
        // zeroing its offset leaves a stored all-zero slot, which an
        // encoder never writes.
        assert_eq!(bytes[bytes.len() - 3..], [2, 0, 1]);
        *bytes.last_mut().unwrap() = 0;
        assert!(read_pdu_truth(&bytes).is_err());
    }
}
