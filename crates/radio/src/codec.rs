//! Binary codecs for radio-layer records (the `trace::Codec` impls).
//!
//! Covers both the analyzer-visible QxDM log streams ([`PduRecord`],
//! [`StatusRecord`], [`RrcTransition`]) and the evaluation-only ground
//! truth ([`PduEvent`] with full coverage info). The two serialize through
//! *different* artifact entry points ([`write_qxdm`] vs
//! [`write_pdu_truth`]) so a bundle can list them under different manifest
//! classes.

use trace::{Codec, Reader, TraceError, Writer};

use crate::qxdm::{PduRecord, QxdmLog, StatusRecord};
use crate::rlc::PduEvent;
use crate::rrc::{RrcState, RrcTransition};
use netstack::pcap::Direction;
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

impl Codec for PduRecord {
    fn encode(&self, w: &mut Writer) {
        self.dir.encode(w);
        w.u32(self.sn);
        w.u16(self.payload_len);
        self.first2.encode(w);
        self.li.encode(w);
        w.bool(self.poll);
        w.bool(self.retransmission);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(PduRecord {
            dir: Direction::decode(r)?,
            sn: r.u32()?,
            payload_len: r.u16()?,
            first2: <[u8; 2]>::decode(r)?,
            li: Option::<u16>::decode(r)?,
            poll: r.bool()?,
            retransmission: r.bool()?,
        })
    }
}

impl Codec for StatusRecord {
    fn encode(&self, w: &mut Writer) {
        self.data_dir.encode(w);
        w.u32(self.acks_sn);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(StatusRecord {
            data_dir: Direction::decode(r)?,
            acks_sn: r.u32()?,
        })
    }
}

impl Codec for PduEvent {
    fn encode(&self, w: &mut Writer) {
        self.dir.encode(w);
        w.u32(self.sn);
        w.u16(self.payload_len);
        self.first2.encode(w);
        self.li.encode(w);
        w.bool(self.poll);
        w.bool(self.retransmission);
        self.covers.encode(w);
        w.u8(self.covers_len);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        let ev = PduEvent {
            dir: Direction::decode(r)?,
            sn: r.u32()?,
            payload_len: r.u16()?,
            first2: <[u8; 2]>::decode(r)?,
            li: Option::<u16>::decode(r)?,
            poll: r.bool()?,
            retransmission: r.bool()?,
            covers: <[(u64, u32); 2]>::decode(r)?,
            covers_len: r.u8()?,
        };
        if ev.covers_len as usize > ev.covers.len() {
            return Err(TraceError::Corrupt(format!(
                "covers_len {} exceeds capacity {}",
                ev.covers_len,
                ev.covers.len()
            )));
        }
        Ok(ev)
    }
}

impl Codec for QxdmLog {
    fn encode(&self, w: &mut Writer) {
        self.rrc.encode(w);
        self.pdus.encode(w);
        self.statuses.encode(w);
    }
    fn decode(r: &mut Reader) -> Result<Self, TraceError> {
        Ok(QxdmLog {
            rrc: RecordLog::decode(r)?,
            pdus: RecordLog::decode(r)?,
            statuses: RecordLog::decode(r)?,
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
    trace::encode_artifact(TRUTH_MAGIC, trace::FORMAT_VERSION, truth)
}

/// Parse the ground-truth PDU stream produced by [`write_pdu_truth`].
pub fn read_pdu_truth(bytes: &[u8]) -> Result<RecordLog<PduEvent>, TraceError> {
    trace::decode_artifact(bytes, TRUTH_MAGIC, trace::FORMAT_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
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
                dir: Direction::Uplink,
                sn: 7,
                payload_len: 80,
                first2: [1, 2],
                li: Some(40),
                poll: false,
                retransmission: true,
                covers: [(3, 40), (4, 40)],
                covers_len: 2,
            },
        );
        let bytes = write_pdu_truth(&truth);
        assert_eq!(read_pdu_truth(&bytes).unwrap(), truth);
    }
}
