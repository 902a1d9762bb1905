//! One-call QoE diagnosis: the tool's namesake.
//!
//! Given a measured behaviour record and the collected artifacts, assemble
//! everything the multi-layer analyzer can say about *why* the user waited:
//! the device/network split, the responsible flows with their RTT and
//! retransmission health, the RRC promotions that stalled the radio, the
//! RLC-level breakdown when PDU logs are available, and the visual-progress
//! summary. [`Diagnosis`] renders as a human-readable report.
//!
//! A [`Diagnoser`] serves one collection: it builds each direction's
//! long-jump mapper index at most once and shares it across every record
//! it diagnoses, so a window costs O(window), not O(session).

use crate::analyze::crosslayer::{
    long_jump_map, net_latency_breakdown, rrc_transitions_in, window_breakdown, MappedPacket,
    MapperOptions, NetLatencyBreakdown, PduIndex, WindowBreakdown,
};
use crate::analyze::speedindex::VisualProgress;
use crate::analyze::transport::TransportReport;
use crate::behavior::BehaviorRecord;
use crate::bundle::{BEHAVIOR, CAMERA, QXDM, TRACE};
use crate::collect::Collection;
use netstack::pcap::Direction;
use netstack::IpPacket;
use radio::qxdm::QxdmLog;
use radio::rrc::RrcTransition;
use simcore::{SimDuration, SimTime};
use std::fmt;
use std::sync::OnceLock;
use trace::Reads;

/// A per-flow line of the diagnosis.
#[derive(Debug, Clone)]
pub struct FlowLine {
    /// Server name (or the remote address when no DNS lookup matched).
    pub server: String,
    /// Uplink wire bytes inside the window.
    pub ul_bytes: u64,
    /// Downlink wire bytes inside the window.
    pub dl_bytes: u64,
    /// Mean data→ACK RTT, if sampled.
    pub mean_rtt: Option<SimDuration>,
    /// Retransmissions (seen + inferred).
    pub retransmissions: u32,
}

/// The assembled root-cause report for one QoE window.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// The measured action.
    pub action: String,
    /// Calibrated user-perceived latency.
    pub user_latency: SimDuration,
    /// Device/network attribution.
    pub split: WindowBreakdown,
    /// Flows active inside the window.
    pub flows: Vec<FlowLine>,
    /// RRC transitions inside the window (cellular only).
    pub rrc_transitions: Vec<(SimDuration, RrcTransition)>,
    /// Fine-grained radio breakdown of the network share (cellular only,
    /// for the direction carrying the bulk of the window's data).
    pub radio_breakdown: Option<NetLatencyBreakdown>,
    /// Share of RLC PDUs in the window flagged as retransmissions
    /// (cellular only; 0.0 without PDU records). A healthy air interface
    /// sits near zero — an elevated ratio is the QxDM signature of
    /// first-hop loss, distinguishing a degraded radio link from a slow
    /// core network or server.
    pub rlc_retx_ratio: f64,
    /// Speed Index of the window's UI changes, when any were drawn.
    pub speed_index: Option<SimDuration>,
}

/// Diagnoses records against one collection, building each direction's
/// [`PduIndex`] the first time a record needs it and reusing it for every
/// later record. A diagnoser may be shared by threads: each index is still
/// built once, by the first thread that needs it.
pub struct Diagnoser<'a> {
    col: &'a Collection,
    uplink: OnceLock<PduIndex<'a>>,
    downlink: OnceLock<PduIndex<'a>>,
}

impl<'a> Diagnoser<'a> {
    /// The bundle entries read when diagnosing a collection's behaviour
    /// records: the behaviour log they come from, the packet trace and
    /// QxDM log, and the camera truth behind the Speed Index.
    pub const READS: Reads = Reads::artifacts(&[BEHAVIOR, TRACE, QXDM]).and_truths(&[CAMERA]);

    /// A diagnoser over `col`; no index is built until a record needs it.
    pub fn new(col: &'a Collection) -> Self {
        Diagnoser {
            col,
            uplink: OnceLock::new(),
            downlink: OnceLock::new(),
        }
    }

    fn index(&self, qxdm: &'a QxdmLog, dir: Direction) -> &PduIndex<'a> {
        let cell = match dir {
            Direction::Uplink => &self.uplink,
            Direction::Downlink => &self.downlink,
        };
        cell.get_or_init(|| PduIndex::new(qxdm, dir))
    }

    /// The radio breakdown of `record`'s window in direction `dir`: the
    /// window's `dir` packets are mapped onto RLC PDU chains by the
    /// long-jump mapper (the whole sequence, since the walk needs every
    /// packet), and the mapped packets `keep` accepts split
    /// `network_latency` by [`net_latency_breakdown`]. Returns the
    /// breakdown and the window's `dir` packet count, or `None` without a
    /// QxDM log or `dir` packets in the window.
    ///
    /// Fig. 8's per-post uplink breakdown and [`Diagnoser::diagnose`]'s
    /// radio breakdown both come from here.
    pub fn radio_breakdown(
        &self,
        record: &BehaviorRecord,
        dir: Direction,
        network_latency: SimDuration,
        keep: impl FnMut(&MappedPacket) -> bool,
    ) -> Option<(NetLatencyBreakdown, usize)> {
        let qxdm = self.col.qxdm.as_ref()?;
        let pkts: Vec<(SimTime, &IpPacket)> = self
            .col
            .trace
            .window(record.start, record.end)
            .iter()
            .filter(|e| e.record.dir == dir)
            .map(|e| (e.at, &e.record.pkt))
            .collect();
        if pkts.is_empty() {
            return None;
        }
        let index = self.index(qxdm, dir);
        let mut mapped = long_jump_map(&pkts, index, MapperOptions::default());
        mapped.retain(keep);
        let breakdown =
            net_latency_breakdown(record.start, record.end, network_latency, &mapped, index);
        Some((breakdown, pkts.len()))
    }

    /// Diagnose one measured record against the collected artifacts.
    pub fn diagnose(&self, record: &BehaviorRecord) -> Diagnosis {
        let col = self.col;
        let split = window_breakdown(record, &col.trace);

        // Transport: flows inside the window.
        let report = TransportReport::analyze_records(col.trace.window(record.start, record.end));
        let flows = report
            .flows
            .iter()
            .map(|f| FlowLine {
                server: f.server.clone().unwrap_or_else(|| format!("{}", f.key.dst)),
                ul_bytes: f.ul_wire,
                dl_bytes: f.dl_wire,
                mean_rtt: f.mean_rtt(),
                retransmissions: f.ul_retx + f.dl_retx + f.inferred_retx,
            })
            .collect();

        // Radio: transitions and, when PDU records exist, the RLC breakdown.
        let mut rrc_transitions = Vec::new();
        let mut radio_breakdown = None;
        let mut rlc_retx_ratio = 0.0;
        if let Some(qxdm) = &col.qxdm {
            let pdus = qxdm.pdus.window(record.start, record.end);
            if !pdus.is_empty() {
                let retx = pdus.iter().filter(|e| e.record.retransmission).count();
                rlc_retx_ratio = retx as f64 / pdus.len() as f64;
            }
            rrc_transitions = rrc_transitions_in(qxdm, record.start, record.end)
                .into_iter()
                .map(|(at, tr)| (at.saturating_since(record.start), tr))
                .collect();
            let window = col.trace.window(record.start, record.end);
            if !qxdm.pdus.is_empty() && !window.is_empty() {
                // Pick the direction carrying the most payload in the window.
                let (ul, dl) = window
                    .iter()
                    .fold((0u64, 0u64), |(u, d), e| match e.record.dir {
                        Direction::Uplink => (u + e.record.pkt.payload_len as u64, d),
                        Direction::Downlink => (u, d + e.record.pkt.payload_len as u64),
                    });
                let dir = if ul >= dl {
                    Direction::Uplink
                } else {
                    Direction::Downlink
                };
                let net = split.network_latency;
                if let Some((mut rb, _)) = self.radio_breakdown(record, dir, net, |_| true) {
                    // IP-to-RLC waits are an uplink phenomenon: an RRC
                    // promotion holds the first *request* at the head of the
                    // uplink queue. A download-dominated window would book
                    // that wait under "core network + server", so fold the
                    // uplink's IP-to-RLC share back in (§7.7: page loads are
                    // promotion-dominated despite downlink bulk). Only the
                    // head-of-line packets — those captured before any
                    // downlink payload — qualify: once the response is
                    // flowing, per-ACK scheduling waits are not user-visible
                    // promotion time and would swamp the sum.
                    if dir == Direction::Downlink {
                        let first_dl_payload = window
                            .iter()
                            .find(|e| {
                                e.record.dir == Direction::Downlink && e.record.pkt.payload_len > 0
                            })
                            .map(|e| e.at);
                        let head_of_line =
                            |m: &MappedPacket| first_dl_payload.is_none_or(|t| m.captured_at < t);
                        if let Some((ul, _)) =
                            self.radio_breakdown(record, Direction::Uplink, net, head_of_line)
                        {
                            rb.ip_to_rlc += ul.ip_to_rlc;
                            rb.other = rb.other.saturating_sub(ul.ip_to_rlc);
                        }
                    }
                    radio_breakdown = Some(rb);
                }
            }
        }

        let speed_index = VisualProgress::of(&col.camera, record.start, record.end).speed_index();

        Diagnosis {
            action: record.action.clone(),
            user_latency: record.calibrated(),
            split,
            flows,
            rrc_transitions,
            radio_breakdown,
            rlc_retx_ratio,
            speed_index,
        }
    }
}

/// Diagnose the longest behaviour-log wait (the wait the user felt most).
///
/// `:playback` summary records span whole sessions — they would always win
/// the max — so they are skipped; the waits the user actually felt are the
/// other records. Returns `None` when the collection holds no such record.
/// This is the shared entry point the chaos campaign and the longitudinal
/// monitor both attribute from.
pub fn diagnose_worst(col: &Collection) -> Option<Diagnosis> {
    col.behavior
        .iter()
        .filter(|(_, rec)| !rec.action.ends_with(":playback"))
        .max_by_key(|(_, rec)| rec.raw())
        .map(|(_, rec)| Diagnoser::new(col).diagnose(rec))
}

impl Diagnosis {
    /// A one-line verdict: what dominated the wait.
    pub fn verdict(&self) -> String {
        let net = self.split.network_latency.as_secs_f64();
        let dev = self.split.device_latency.as_secs_f64();
        let total = self.user_latency.as_secs_f64().max(f64::MIN_POSITIVE);
        if self.split.response_outside_window && net < dev {
            "device-bound: the network response was not on the critical path".into()
        } else if net > dev {
            let mut cause = format!("network-bound ({:.0}% of the wait)", net / total * 100.0);
            if let Some(rb) = &self.radio_breakdown {
                let parts = [
                    (rb.rlc_tx, "RLC transmission"),
                    (rb.ip_to_rlc, "RRC promotion / IP-to-RLC"),
                    (rb.ota, "first-hop OTA waits"),
                    (rb.other, "core network + server"),
                ];
                if let Some((share, label)) = parts.iter().max_by(|a, b| a.0.cmp(&b.0)) {
                    cause.push_str(&format!(", dominated by {label} ({share})"));
                }
            }
            cause
        } else {
            format!("device-bound ({:.0}% of the wait)", dev / total * 100.0)
        }
    }
}

impl fmt::Display for Diagnosis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QoE diagnosis — {}", self.action)?;
        writeln!(f, "  user-perceived latency: {}", self.user_latency)?;
        writeln!(
            f,
            "  split: network {} / device {}",
            self.split.network_latency, self.split.device_latency
        )?;
        writeln!(f, "  verdict: {}", self.verdict())?;
        if let Some(si) = self.speed_index {
            writeln!(f, "  speed index: {si}")?;
        }
        for fl in &self.flows {
            write!(
                f,
                "  flow {:<24} up {:>7} B  down {:>7} B",
                fl.server, fl.ul_bytes, fl.dl_bytes
            )?;
            if let Some(rtt) = fl.mean_rtt {
                write!(f, "  rtt {rtt}")?;
            }
            if fl.retransmissions > 0 {
                write!(f, "  retx {}", fl.retransmissions)?;
            }
            writeln!(f)?;
        }
        for (offset, tr) in &self.rrc_transitions {
            writeln!(f, "  rrc {:?} -> {:?} at +{offset}", tr.from, tr.to)?;
        }
        if let Some(rb) = &self.radio_breakdown {
            writeln!(
                f,
                "  radio: ip-to-rlc {}  rlc-tx {}  ota {}  other {}",
                rb.ip_to_rlc, rb.rlc_tx, rb.ota, rb.other
            )?;
        }
        if self.rlc_retx_ratio > 0.0 {
            writeln!(
                f,
                "  rlc retransmissions: {:.0}% of PDUs in the window",
                self.rlc_retx_ratio * 100.0
            )?;
        }
        Ok(())
    }
}
