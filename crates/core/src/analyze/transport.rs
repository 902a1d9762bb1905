//! Transport/network layer analyzer (§5.2).
//!
//! Parses the raw packet trace, extracts TCP flows keyed by the 4-tuple,
//! associates flows with server hostnames by replaying the DNS lookups in
//! the trace, and computes data consumption, retransmissions, handshake
//! RTT, and throughput time series.

use netstack::dns;
use netstack::pcap::{Direction, PacketRecord};
use netstack::{FlowKey, IpAddr, Proto};
use simcore::{BinSeries, RecordLog, SimDuration, SimTime, Stamped};
use std::collections::{HashMap, HashSet};

/// Aggregate statistics for one (bidirectional) TCP flow.
#[derive(Debug, Clone)]
pub struct FlowStats {
    /// Normalized flow key.
    pub key: FlowKey,
    /// Server hostname, when a DNS lookup in the trace maps the remote IP.
    pub server: Option<String>,
    /// Uplink wire bytes (headers included — what the user is billed for).
    pub ul_wire: u64,
    /// Downlink wire bytes.
    pub dl_wire: u64,
    /// Uplink payload bytes.
    pub ul_payload: u64,
    /// Downlink payload bytes.
    pub dl_payload: u64,
    /// First packet timestamp.
    pub first: SimTime,
    /// Last packet timestamp.
    pub last: SimTime,
    /// Retransmitted data segments (duplicate sequence numbers), uplink.
    pub ul_retx: u32,
    /// Retransmitted data segments, downlink.
    pub dl_retx: u32,
    /// Inferred upstream retransmissions: data segments arriving with a
    /// sequence number below the running maximum (a hole being filled).
    /// When the original copy was dropped *before* the capture point (a
    /// policer at the base station), the device-side trace never shows a
    /// duplicate — the loss shows up as reordered hole-fills instead.
    pub inferred_retx: u32,
    /// SYN → SYN-ACK round trip, when both were captured.
    pub handshake_rtt: Option<SimDuration>,
    /// Data→ACK round-trip samples (uplink data segment to the downlink
    /// ACK covering it), in seconds — the per-flow RTT of §5.2.
    pub rtt_samples: Vec<f64>,
    /// Packets in the flow.
    pub packets: u32,
}

impl FlowStats {
    /// Duration of the flow (first packet to last).
    pub fn duration(&self) -> SimDuration {
        self.last.saturating_since(self.first)
    }

    /// Mean data→ACK RTT, if any samples were taken.
    pub fn mean_rtt(&self) -> Option<SimDuration> {
        if self.rtt_samples.is_empty() {
            return None;
        }
        Some(SimDuration::from_secs_f64(
            self.rtt_samples.iter().sum::<f64>() / self.rtt_samples.len() as f64,
        ))
    }
}

/// The transport-layer report for a trace.
#[derive(Debug, Clone)]
pub struct TransportReport {
    /// Per-flow statistics, in order of first appearance.
    pub flows: Vec<FlowStats>,
    /// IP → hostname from the DNS lookups in the trace.
    pub dns: HashMap<IpAddr, String>,
}

impl TransportReport {
    /// Analyze a full trace.
    pub fn analyze(trace: &RecordLog<PacketRecord>) -> TransportReport {
        Self::analyze_records(trace.entries())
    }

    /// Analyze a window of a trace (the records inside a QoE window).
    pub fn analyze_records(records: &[Stamped<PacketRecord>]) -> TransportReport {
        // Pass 1: DNS associations.
        let mut dns_map = HashMap::new();
        for e in records {
            if e.record.pkt.proto == Proto::Udp {
                if let Some(payload) = &e.record.pkt.udp_payload {
                    if let Some((name, ip)) = dns::parse_response(payload) {
                        dns_map.insert(ip, name);
                    }
                }
            }
        }
        // Pass 2: flows.
        let mut order: Vec<FlowKey> = Vec::new();
        let mut flows: HashMap<FlowKey, FlowStats> = HashMap::new();
        let mut seen_seq: HashMap<(FlowKey, Direction), HashSet<u64>> = HashMap::new();
        let mut max_seq: HashMap<(FlowKey, Direction), u64> = HashMap::new();
        let mut syn_at: HashMap<FlowKey, SimTime> = HashMap::new();
        // Outstanding uplink data segments awaiting their ACK: per flow,
        // (stream end position, first-transmission time).
        let mut awaiting_ack: HashMap<FlowKey, Vec<(u64, SimTime)>> = HashMap::new();
        for e in records {
            let pkt = &e.record.pkt;
            if pkt.proto != Proto::Tcp {
                continue;
            }
            let key = e.record.flow();
            let stats = flows.entry(key).or_insert_with(|| {
                order.push(key);
                // The remote end is whichever address the uplink targets.
                let remote_ip = match e.record.dir {
                    Direction::Uplink => pkt.dst.ip,
                    Direction::Downlink => pkt.src.ip,
                };
                FlowStats {
                    key,
                    server: dns_map.get(&remote_ip).cloned(),
                    ul_wire: 0,
                    dl_wire: 0,
                    ul_payload: 0,
                    dl_payload: 0,
                    first: e.at,
                    last: e.at,
                    ul_retx: 0,
                    dl_retx: 0,
                    inferred_retx: 0,
                    handshake_rtt: None,
                    rtt_samples: Vec::new(),
                    packets: 0,
                }
            });
            stats.packets += 1;
            stats.last = stats.last.max(e.at);
            match e.record.dir {
                Direction::Uplink => {
                    stats.ul_wire += pkt.wire_len() as u64;
                    stats.ul_payload += pkt.payload_len as u64;
                }
                Direction::Downlink => {
                    stats.dl_wire += pkt.wire_len() as u64;
                    stats.dl_payload += pkt.payload_len as u64;
                }
            }
            if let Some(hdr) = pkt.tcp {
                if hdr.flags.syn && !hdr.flags.ack {
                    syn_at.entry(key).or_insert(e.at);
                } else if hdr.flags.syn && hdr.flags.ack {
                    if let Some(s) = syn_at.get(&key) {
                        stats.handshake_rtt.get_or_insert(e.at.saturating_since(*s));
                    }
                }
                // Data→ACK RTT sampling (device perspective: uplink data,
                // downlink cumulative ack). Retransmitted segments are
                // excluded per Karn's algorithm.
                if e.record.dir == Direction::Uplink && pkt.payload_len > 0 {
                    let fresh = seen_seq
                        .get(&(key, Direction::Uplink))
                        .is_none_or(|s| !s.contains(&hdr.seq));
                    if fresh {
                        awaiting_ack
                            .entry(key)
                            .or_default()
                            .push((hdr.seq + pkt.payload_len as u64, e.at));
                    } else {
                        // A retransmission poisons pending samples at or
                        // below it.
                        if let Some(v) = awaiting_ack.get_mut(&key) {
                            v.retain(|(end, _)| *end <= hdr.seq);
                        }
                    }
                }
                if e.record.dir == Direction::Downlink && hdr.flags.ack {
                    if let Some(v) = awaiting_ack.get_mut(&key) {
                        let mut i = 0;
                        while i < v.len() {
                            if v[i].0 <= hdr.ack {
                                let (_, sent) = v.swap_remove(i);
                                stats
                                    .rtt_samples
                                    .push(e.at.saturating_since(sent).as_secs_f64());
                            } else {
                                i += 1;
                            }
                        }
                    }
                }
                if pkt.payload_len > 0 {
                    let set = seen_seq.entry((key, e.record.dir)).or_default();
                    if !set.insert(hdr.seq) {
                        match e.record.dir {
                            Direction::Uplink => stats.ul_retx += 1,
                            Direction::Downlink => stats.dl_retx += 1,
                        }
                    } else {
                        let m = max_seq.entry((key, e.record.dir)).or_insert(0);
                        if hdr.seq < *m {
                            stats.inferred_retx += 1;
                        }
                        *m = (*m).max(hdr.seq);
                    }
                }
            }
        }
        let flows = order
            .into_iter()
            .map(|k| flows.remove(&k).expect("flow"))
            .collect();
        TransportReport {
            flows,
            dns: dns_map,
        }
    }

    /// Flows whose server hostname contains `needle`.
    pub fn flows_to(&self, needle: &str) -> Vec<&FlowStats> {
        self.flows
            .iter()
            .filter(|f| f.server.as_deref().is_some_and(|s| s.contains(needle)))
            .collect()
    }

    /// `(uplink, downlink)` wire bytes across flows to servers matching
    /// `needle` (the §7.3 per-domain data-consumption accounting).
    pub fn volume_to(&self, needle: &str) -> (u64, u64) {
        self.flows_to(needle)
            .iter()
            .fold((0, 0), |(u, d), f| (u + f.ul_wire, d + f.dl_wire))
    }

    /// Total retransmissions across all flows (duplicates seen at the
    /// capture point plus inferred upstream retransmissions).
    pub fn total_retx(&self) -> u32 {
        self.flows
            .iter()
            .map(|f| f.ul_retx + f.dl_retx + f.inferred_retx)
            .sum()
    }
}

/// Downlink throughput over time in bits/s, binned at `bin_secs`
/// (Fig. 18's traces).
pub fn downlink_throughput(trace: &RecordLog<PacketRecord>, bin_secs: f64) -> BinSeries {
    let mut series = BinSeries::new(bin_secs);
    for (at, rec) in trace.iter() {
        if rec.dir == Direction::Downlink && rec.pkt.proto == Proto::Tcp {
            series.add(at.as_secs_f64(), rec.pkt.wire_len() as f64 * 8.0 / bin_secs);
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::{IpPacket, SocketAddr, TcpFlags, TcpHeader};

    fn tcp_pkt(dir: Direction, seq: u64, len: u32, flags: TcpFlags) -> PacketRecord {
        let phone = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000);
        let server = SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443);
        let (src, dst) = match dir {
            Direction::Uplink => (phone, server),
            Direction::Downlink => (server, phone),
        };
        PacketRecord {
            dir,
            pkt: IpPacket {
                id: seq + 1000,
                src,
                dst,
                proto: Proto::Tcp,
                tcp: Some(TcpHeader { seq, ack: 0, flags }),
                payload_len: len,
                udp_payload: None,
                markers: Vec::new(),
            },
        }
    }

    fn dns_rec(name: &str, ip: IpAddr) -> PacketRecord {
        let body = dns::encode_response(name, ip);
        PacketRecord {
            dir: Direction::Downlink,
            pkt: IpPacket {
                id: 1,
                src: SocketAddr::new(IpAddr::new(8, 8, 8, 8), 53),
                dst: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 5353),
                proto: Proto::Udp,
                tcp: None,
                payload_len: body.len() as u32,
                udp_payload: Some(body),
                markers: Vec::new(),
            },
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn flow_extraction_with_dns_association() {
        let mut trace = RecordLog::new();
        trace.push(t(0), dns_rec("api.facebook.com", IpAddr::new(31, 13, 0, 2)));
        trace.push(
            t(10),
            tcp_pkt(
                Direction::Uplink,
                0,
                0,
                TcpFlags {
                    syn: true,
                    ..Default::default()
                },
            ),
        );
        trace.push(
            t(60),
            tcp_pkt(
                Direction::Downlink,
                0,
                0,
                TcpFlags {
                    syn: true,
                    ack: true,
                    ..Default::default()
                },
            ),
        );
        trace.push(
            t(80),
            tcp_pkt(
                Direction::Uplink,
                1,
                1000,
                TcpFlags {
                    ack: true,
                    ..Default::default()
                },
            ),
        );
        let report = TransportReport::analyze(&trace);
        assert_eq!(report.flows.len(), 1);
        let f = &report.flows[0];
        assert_eq!(f.server.as_deref(), Some("api.facebook.com"));
        assert_eq!(f.handshake_rtt, Some(SimDuration::from_millis(50)));
        assert_eq!(f.ul_payload, 1000);
        assert_eq!(f.ul_wire, 40 + 1040); // SYN + data segment
        assert_eq!(report.flows_to("facebook").len(), 1);
        assert_eq!(report.volume_to("facebook"), (1080, 40));
    }

    #[test]
    fn duplicate_seq_counts_as_retransmission() {
        let mut trace = RecordLog::new();
        let flags = TcpFlags {
            ack: true,
            ..Default::default()
        };
        trace.push(t(0), tcp_pkt(Direction::Uplink, 1, 1000, flags));
        trace.push(t(10), tcp_pkt(Direction::Uplink, 1001, 1000, flags));
        trace.push(t(500), tcp_pkt(Direction::Uplink, 1, 1000, flags)); // retx
        let report = TransportReport::analyze(&trace);
        assert_eq!(report.flows[0].ul_retx, 1);
        assert_eq!(report.total_retx(), 1);
    }

    #[test]
    fn throughput_series_bins_downlink() {
        let mut trace = RecordLog::new();
        let flags = TcpFlags {
            ack: true,
            ..Default::default()
        };
        trace.push(t(100), tcp_pkt(Direction::Downlink, 1, 960, flags)); // 1000 wire
        trace.push(t(200), tcp_pkt(Direction::Downlink, 961, 960, flags));
        trace.push(t(1500), tcp_pkt(Direction::Downlink, 1921, 960, flags));
        trace.push(t(1600), tcp_pkt(Direction::Uplink, 1, 960, flags)); // ignored
        let s = downlink_throughput(&trace, 1.0);
        assert_eq!(s.bins.len(), 2);
        assert!((s.bins[0] - 16_000.0).abs() < 1e-9); // 2000 B * 8 / 1 s
        assert!((s.bins[1] - 8_000.0).abs() < 1e-9);
    }

    #[test]
    fn data_ack_rtt_is_sampled_and_karn_guarded() {
        let mut trace = RecordLog::new();
        let flags = TcpFlags {
            ack: true,
            ..Default::default()
        };
        // Segment sent at 0 ms, acked at 120 ms -> one 120 ms sample.
        trace.push(t(0), tcp_pkt(Direction::Uplink, 1, 1000, flags));
        let mut ack = tcp_pkt(Direction::Downlink, 0, 0, flags);
        ack.pkt.tcp = Some(TcpHeader {
            seq: 0,
            ack: 1001,
            flags,
        });
        trace.push(t(120), ack);
        // A second segment retransmitted before its ack: no sample.
        trace.push(t(200), tcp_pkt(Direction::Uplink, 1001, 1000, flags));
        trace.push(t(700), tcp_pkt(Direction::Uplink, 1001, 1000, flags)); // retx
        let mut ack2 = tcp_pkt(Direction::Downlink, 0, 0, flags);
        ack2.pkt.tcp = Some(TcpHeader {
            seq: 0,
            ack: 2001,
            flags,
        });
        trace.push(t(800), ack2);
        let report = TransportReport::analyze(&trace);
        let f = &report.flows[0];
        assert_eq!(f.rtt_samples.len(), 1, "{:?}", f.rtt_samples);
        assert!((f.rtt_samples[0] - 0.120).abs() < 1e-9);
        assert_eq!(f.mean_rtt().unwrap().as_millis(), 120);
    }

    #[test]
    fn flow_throughput_uses_payload_and_duration() {
        let mut trace = RecordLog::new();
        let flags = TcpFlags {
            ack: true,
            ..Default::default()
        };
        trace.push(t(0), tcp_pkt(Direction::Downlink, 1, 1000, flags));
        trace.push(t(1_000), tcp_pkt(Direction::Downlink, 1001, 1000, flags));
        let report = TransportReport::analyze(&trace);
        let f = &report.flows[0];
        assert_eq!(f.duration(), SimDuration::from_secs(1));
        assert_eq!(f.dl_payload, 2_000);
    }

    #[test]
    fn window_analysis_sees_only_window_records() {
        let mut trace = RecordLog::new();
        let flags = TcpFlags {
            ack: true,
            ..Default::default()
        };
        trace.push(t(0), tcp_pkt(Direction::Uplink, 1, 100, flags));
        trace.push(t(5_000), tcp_pkt(Direction::Uplink, 101, 100, flags));
        let windowed = TransportReport::analyze_records(trace.window(t(4_000), t(6_000)));
        assert_eq!(windowed.flows.len(), 1);
        assert_eq!(windowed.flows[0].packets, 1);
    }
}
