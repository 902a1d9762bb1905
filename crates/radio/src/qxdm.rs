//! QxDM-substitute diagnostic logger.
//!
//! The paper collects RRC/RLC data with Qualcomm's QxDM tool, which has two
//! limitations QoE Doctor must work around (§4.3.3): each RLC PDU record
//! carries **only the first 2 payload bytes**, and a small fraction of PDU
//! records are simply **missing** from the log. Both limitations are
//! reproduced here — the long-jump mapping algorithm and its sub-100%
//! mapping ratio (Table 3) only make sense against a log with these defects.
//!
//! Ground truth is retained in a *separate* log that only the accuracy
//! evaluation reads; the analyzers never touch it. Each truth row is the
//! QxDM record plus coverage ([`PduEvent`]): the analyzer-visible log is
//! the truth's records, in order, minus the records QxDM dropped.

use crate::rlc::PduEvent;
use crate::rrc::RrcTransition;
use netstack::pcap::Direction;
use simcore::{DetRng, RecordLog, SimTime};

/// Logger parameters.
#[derive(Debug, Clone)]
pub struct QxdmConfig {
    /// Probability an uplink PDU record is missing from the log.
    pub ul_record_loss: f64,
    /// Probability a downlink PDU record is missing from the log.
    pub dl_record_loss: f64,
    /// Record PDUs at all. Disable for very long bulk-transfer experiments
    /// where only RRC transitions matter (energy accounting) — per-PDU logs
    /// of a multi-hour video session would dwarf the experiment itself.
    pub log_pdus: bool,
}

impl Default for QxdmConfig {
    fn default() -> Self {
        // Loss rates chosen to land near the paper's Table 3 mapping ratios
        // (99.52% uplink, 88.83% downlink of IP packets mapped).
        QxdmConfig {
            ul_record_loss: 0.0001,
            dl_record_loss: 0.12,
            log_pdus: true,
        }
    }
}

impl QxdmConfig {
    /// Check every field is usable: record-loss rates must be finite
    /// probabilities. Same contract as `LinkConfig::validate` — a NaN or
    /// out-of-range rate would silently bias the `chance()` draw instead of
    /// failing, so constructors reject it outright.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("ul_record_loss", self.ul_record_loss),
            ("dl_record_loss", self.dl_record_loss),
        ] {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(format!(
                    "QxdmConfig.{name} must be a probability in [0, 1], got {v}"
                ));
            }
        }
        Ok(())
    }
}

/// What QxDM records about one PDU — note: no packet identity, only the
/// first two payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PduRecord {
    /// Direction the PDU travelled.
    pub dir: Direction,
    /// RLC sequence number.
    pub sn: u32,
    /// Payload bytes carried.
    pub payload_len: u16,
    /// First two payload bytes.
    pub first2: [u8; 2],
    /// Length Indicator (packet boundary offset), when present.
    pub li: Option<u16>,
    /// Poll request bit.
    pub poll: bool,
    /// Retransmission flag.
    pub retransmission: bool,
}

/// A STATUS PDU, as the RLC receiver sends it in response to a poll and
/// as QxDM records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusRecord {
    /// Direction of the data the STATUS acknowledges; the STATUS itself
    /// travels the opposite way.
    pub data_dir: Direction,
    /// Highest acknowledged sequence number.
    pub acks_sn: u32,
}

/// The diagnostic log an analyzer consumes.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct QxdmLog {
    /// RRC state transitions.
    pub rrc: RecordLog<RrcTransition>,
    /// RLC PDU records (payload truncated to 2 bytes, some records missing).
    pub pdus: RecordLog<PduRecord>,
    /// STATUS PDU records.
    pub statuses: RecordLog<StatusRecord>,
}

/// The logger: observes radio events, writes the (lossy) log plus a
/// ground-truth shadow log for accuracy evaluation.
pub struct Qxdm {
    cfg: QxdmConfig,
    rng: DetRng,
    /// The log QoE Doctor's analyzers read.
    pub log: QxdmLog,
    /// Ground truth: every PDU's record with its coverage. Evaluation only.
    pub truth: RecordLog<PduEvent>,
}

impl Qxdm {
    /// New logger.
    ///
    /// # Panics
    /// If `cfg` fails [`QxdmConfig::validate`].
    pub fn new(cfg: QxdmConfig, rng: DetRng) -> Qxdm {
        if let Err(e) = cfg.validate() {
            panic!("invalid QxdmConfig: {e}");
        }
        Qxdm {
            cfg,
            rng,
            log: QxdmLog::default(),
            truth: RecordLog::new(),
        }
    }

    /// Observe a transmitted PDU. Events must be fed in time order.
    pub fn observe_pdu(&mut self, at: SimTime, ev: &PduEvent) {
        if !self.cfg.log_pdus {
            return;
        }
        self.truth.push(at, *ev);
        let loss = match ev.pdu.dir {
            Direction::Uplink => self.cfg.ul_record_loss,
            Direction::Downlink => self.cfg.dl_record_loss,
        };
        if self.rng.chance(loss) {
            return; // record missing from the log, as QxDM sometimes drops
        }
        self.log.pdus.push(at, ev.pdu);
    }

    /// Observe a STATUS PDU arrival.
    pub fn observe_status(&mut self, at: SimTime, ev: &StatusRecord) {
        self.log.statuses.push(at, *ev);
    }

    /// Observe an RRC state transition.
    pub fn observe_rrc(&mut self, at: SimTime, tr: RrcTransition) {
        self.log.rrc.push(at, tr);
    }

    /// Take ownership of the accumulated logs (end of an experiment):
    /// `(diagnostic log, ground-truth PDU log)`.
    pub fn take_logs(&mut self) -> (QxdmLog, simcore::RecordLog<PduEvent>) {
        (
            core::mem::take(&mut self.log),
            core::mem::take(&mut self.truth),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrc::RrcState;

    #[test]
    fn config_validation_rejects_nan_and_out_of_range() {
        assert!(QxdmConfig::default().validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, -0.01, 1.01] {
            let cfg = QxdmConfig {
                ul_record_loss: bad,
                ..QxdmConfig::default()
            };
            assert!(cfg.validate().is_err(), "ul_record_loss {bad} accepted");
            let cfg = QxdmConfig {
                dl_record_loss: bad,
                ..QxdmConfig::default()
            };
            assert!(cfg.validate().is_err(), "dl_record_loss {bad} accepted");
        }
        // Boundary values are legal probabilities.
        assert!(QxdmConfig {
            ul_record_loss: 0.0,
            dl_record_loss: 1.0,
            log_pdus: true,
        }
        .validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid QxdmConfig")]
    fn constructor_panics_on_invalid_config() {
        let _ = Qxdm::new(
            QxdmConfig {
                dl_record_loss: f64::NAN,
                ..QxdmConfig::default()
            },
            DetRng::seed_from_u64(1),
        );
    }

    fn ev(dir: Direction, sn: u32) -> PduEvent {
        PduEvent {
            pdu: PduRecord {
                dir,
                sn,
                payload_len: 40,
                first2: [0x45, 6],
                li: None,
                poll: false,
                retransmission: false,
            },
            covers: [(1, 40), (0, 0)],
            covers_len: 1,
        }
    }

    #[test]
    fn records_are_truncated_to_two_bytes() {
        let mut q = Qxdm::new(
            QxdmConfig {
                ul_record_loss: 0.0,
                dl_record_loss: 0.0,
                log_pdus: true,
            },
            DetRng::seed_from_u64(1),
        );
        q.observe_pdu(SimTime::ZERO, &ev(Direction::Uplink, 0));
        let rec = q.log.pdus.entries()[0].record;
        assert_eq!(rec.first2, [0x45, 6]);
        assert_eq!(rec.payload_len, 40);
        // Ground truth retains coverage.
        assert_eq!(q.truth.entries()[0].record.coverage().count(), 1);
    }

    #[test]
    fn downlink_records_are_lossier_than_uplink() {
        let mut q = Qxdm::new(QxdmConfig::default(), DetRng::seed_from_u64(42));
        let n = 20_000u32;
        for sn in 0..n {
            let t = SimTime::from_micros(sn as u64);
            q.observe_pdu(t, &ev(Direction::Uplink, sn));
            q.observe_pdu(t, &ev(Direction::Downlink, sn));
        }
        let ul = q
            .log
            .pdus
            .iter()
            .filter(|(_, r)| r.dir == Direction::Uplink)
            .count();
        let dl = q
            .log
            .pdus
            .iter()
            .filter(|(_, r)| r.dir == Direction::Downlink)
            .count();
        assert!(ul > dl, "ul {ul} dl {dl}");
        // Loss rates in the right ballpark.
        let ul_loss = 1.0 - ul as f64 / n as f64;
        let dl_loss = 1.0 - dl as f64 / n as f64;
        assert!(ul_loss < 0.002, "ul_loss {ul_loss}");
        assert!(dl_loss > 0.08 && dl_loss < 0.16, "dl_loss {dl_loss}");
        // Ground truth is complete regardless.
        assert_eq!(q.truth.len(), 2 * n as usize);
    }

    #[test]
    fn rrc_and_status_are_recorded() {
        let mut q = Qxdm::new(QxdmConfig::default(), DetRng::seed_from_u64(1));
        q.observe_rrc(
            SimTime::ZERO,
            RrcTransition {
                from: RrcState::Pch,
                to: RrcState::Dch,
            },
        );
        q.observe_status(
            SimTime::from_millis(5),
            &StatusRecord {
                data_dir: Direction::Uplink,
                acks_sn: 17,
            },
        );
        assert_eq!(q.log.rrc.len(), 1);
        assert_eq!(q.log.statuses.entries()[0].record.acks_sn, 17);
    }
}
