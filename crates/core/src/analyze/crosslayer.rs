//! Cross-layer analyzers (§5.4).
//!
//! Three analyses connect the layers:
//!
//! 1. **QoE window ↔ transport/network** (§5.4.1): which TCP flow is
//!    responsible for an application-layer delay, how much of the
//!    user-perceived latency is network vs device, and whether the server's
//!    response falls *outside* the QoE window (the local-echo signature of
//!    Finding 1).
//! 2. **QoE window ↔ RRC** : state transitions overlapping a latency window.
//! 3. **Transport/network ↔ RLC**: the *long-jump mapping* of IP packets
//!    onto RLC PDU chains (§5.4.2, Fig. 5), working only from what QxDM
//!    logs — the first two payload bytes per PDU, the Length Indicator, and
//!    the PDU length — plus the fine-grained network latency breakdown of
//!    Fig. 9 (IP-to-RLC, RLC transmission, first-hop OTA, other).
//!
//! The third analysis is per-window work over session-wide state. A
//! [`PduIndex`] holds that state for one (QxDM log, direction): the
//! deduplicated first transmissions with their sequence-gap counts, the
//! bridge-candidate positions, the chain-start positions keyed by the first
//! two payload bytes (a counting sort on the 16-bit key), and the median
//! first-hop OTA RTT. It is built once per session and direction and shared
//! by `&` across every window ([`long_jump_map`], [`net_latency_breakdown`])
//! and mapper configuration; [`TruthCovers`] does the same for scoring
//! against ground truth ([`score_mapping`]). The [`mod@reference`] module keeps
//! the per-call implementations as the differential oracle.

use crate::analyze::timeindex::TimeIndex;
use crate::behavior::BehaviorRecord;
use netstack::pcap::{Direction, PacketRecord};
use netstack::{FlowKey, IpPacket};
use radio::qxdm::{PduRecord, QxdmLog};
use radio::rlc::PduEvent;
use radio::rrc::RrcTransition;
use simcore::{Cdf, RecordLog, SimDuration, SimTime};
use std::collections::HashMap;

// ---------------------------------------------------------------------
// 1. QoE window ↔ transport/network
// ---------------------------------------------------------------------

/// Device/network split of one user-perceived latency window (Fig. 7).
#[derive(Debug, Clone)]
pub struct WindowBreakdown {
    /// Calibrated user-perceived latency.
    pub user_latency: SimDuration,
    /// Span of the responsible flow's packets inside the QoE window.
    pub network_latency: SimDuration,
    /// `user_latency − network_latency` (saturating).
    pub device_latency: SimDuration,
    /// The flow attributed to the delay, if any traffic fell in the window.
    pub responsible_flow: Option<FlowKey>,
    /// True when the action's server response completed after the window —
    /// the network was *not* on the critical path (local echo, Finding 1).
    pub response_outside_window: bool,
}

/// Attribute a latency window to network vs device time. `trace` is the
/// full capture; the QoE window is the record's `[start, end]`.
pub fn window_breakdown(
    record: &BehaviorRecord,
    trace: &RecordLog<PacketRecord>,
) -> WindowBreakdown {
    let user_latency = record.calibrated();
    let in_window = trace.window(record.start, record.end);
    // Group traffic by flow. DNS lookups (UDP) count toward the network
    // span: a page stuck on an unanswered resolver is waiting on the
    // network, and on cellular the first query also absorbs the RRC
    // promotion — excluding it would book both against the device.
    let mut spans: HashMap<FlowKey, (SimTime, SimTime, u64)> = HashMap::new();
    for e in in_window {
        let pkt = &e.record.pkt;
        let key = e.record.flow();
        let entry = spans.entry(key).or_insert((e.at, e.at, 0));
        entry.0 = entry.0.min(e.at);
        entry.1 = entry.1.max(e.at);
        entry.2 += pkt.wire_len() as u64;
    }
    let responsible = spans.iter().max_by_key(|(_, (_, _, bytes))| *bytes);
    let responsible_flow = responsible.map(|(key, _)| *key);
    // The network share spans *all* flows active in the window: an action
    // like the WebView's iterated content fetching spreads one logical
    // fetch over several sequential connections (§5.4.1 speaks of "the TCP
    // flows responsible", plural).
    let network_latency = match (
        spans.values().map(|(f, _, _)| *f).min(),
        spans.values().map(|(_, l, _)| *l).max(),
    ) {
        (Some(first), Some(last)) => last.saturating_since(first),
        _ => SimDuration::ZERO,
    };
    // Did the action's traffic complete only after the window? Look for
    // downlink payload on the responsible flow inside the window; if the
    // window holds none — or no flow at all — the response came later.
    let response_inside = responsible_flow.is_some_and(|key| {
        in_window.iter().any(|e| {
            e.record.flow() == key
                && e.record.dir == Direction::Downlink
                && e.record.pkt.payload_len > 0
        })
    });
    WindowBreakdown {
        user_latency,
        network_latency: network_latency.min(user_latency),
        device_latency: user_latency.saturating_sub(network_latency),
        responsible_flow,
        response_outside_window: !response_inside,
    }
}

// ---------------------------------------------------------------------
// 2. QoE window ↔ RRC
// ---------------------------------------------------------------------

/// RRC transitions overlapping `[start, end]`.
pub fn rrc_transitions_in(
    log: &QxdmLog,
    start: SimTime,
    end: SimTime,
) -> Vec<(SimTime, RrcTransition)> {
    log.rrc
        .window(start, end)
        .iter()
        .map(|e| (e.at, e.record))
        .collect()
}

// ---------------------------------------------------------------------
// 3. Long-jump mapping (IP packets → RLC PDU chains)
// ---------------------------------------------------------------------

/// The mapping result for one IP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedPacket {
    /// The packet id.
    pub packet_id: u64,
    /// Capture timestamp of the packet.
    pub captured_at: SimTime,
    /// RLC sequence numbers of the mapped PDU chain (empty = unmapped).
    pub sns: Vec<u32>,
    /// Transmission-complete time of the first mapped PDU.
    pub first_pdu_at: Option<SimTime>,
    /// Transmission-complete time of the last mapped PDU.
    pub last_pdu_at: Option<SimTime>,
}

impl MappedPacket {
    /// True when a chain was found.
    pub fn mapped(&self) -> bool {
        !self.sns.is_empty()
    }
}

/// Mapper configuration — exposed so the contribution of each resync
/// mechanism can be measured (the `repro ablation` experiment).
#[derive(Debug, Clone, Copy)]
pub struct MapperOptions {
    /// Use RLC sequence-number gaps to absorb packets whose records QxDM
    /// lost. Without this, packets with no distinguishing interior bytes
    /// (bare ACKs) desynchronize the walk after the first lost record.
    pub gap_credit: bool,
    /// Consider LI-bearing PDUs as bridge candidates when scanning for a
    /// chain start (resync for packets that start mid-PDU on the
    /// concatenating 3G uplink).
    pub bridge_rescue: bool,
    /// How far ahead of the cursor the scan looks for a chain start.
    pub scan_window: usize,
}

impl Default for MapperOptions {
    fn default() -> Self {
        MapperOptions {
            gap_credit: true,
            bridge_rescue: true,
            scan_window: 256,
        }
    }
}

struct DedupedPdu {
    at: SimTime,
    rec: PduRecord,
    /// Number of records missing immediately before this one (the RLC
    /// sequence-number jump — QxDM dropped records).
    gap_before: u32,
}

/// Wire-byte accessor the mapper walks. The reference implementation feeds
/// the eagerly materialized buffer; the indexed mapper feeds the lazy
/// [`netstack::WireView`], generating only the handful of bytes each chain
/// comparison actually touches — the long-jump principle applied to the
/// analyzer's own input.
trait WireAccess {
    fn len(&self) -> usize;
    fn at(&self, i: usize) -> u8;
}

impl WireAccess for Vec<u8> {
    fn len(&self) -> usize {
        Vec::len(self)
    }
    fn at(&self, i: usize) -> u8 {
        self[i]
    }
}

impl WireAccess for netstack::WireView {
    fn len(&self) -> usize {
        netstack::WireView::len(self)
    }
    fn at(&self, i: usize) -> u8 {
        netstack::WireView::at(self, i)
    }
}

/// Keep first transmissions only (retransmissions reuse the sn; records
/// arrive in sn order for first transmissions).
fn dedup_first_transmissions(qxdm: &QxdmLog, dir: Direction) -> Vec<DedupedPdu> {
    let mut pdus: Vec<DedupedPdu> = Vec::new();
    let mut max_sn_seen: Option<u32> = None;
    for (at, rec) in qxdm.pdus.iter() {
        if rec.dir != dir {
            continue;
        }
        if max_sn_seen.is_none_or(|m| rec.sn > m) {
            // RLC sequence numbers start at 0, so a first record with
            // sn > 0 also reveals missing records.
            let gap_before = max_sn_seen.map_or(rec.sn, |m| rec.sn.saturating_sub(m + 1));
            max_sn_seen = Some(rec.sn);
            pdus.push(DedupedPdu {
                at,
                rec: *rec,
                gap_before,
            });
        }
    }
    pdus
}

/// The session-wide state the long-jump mapper and the Fig. 9 breakdown
/// read, built once per (QxDM log, direction) and shared by `&` across
/// every window and mapper configuration analyzed against that log.
///
/// It holds the deduplicated first transmissions with their sequence-gap
/// counts, the bridge-candidate positions, the chain-start positions keyed
/// by the first two payload bytes, and the median first-hop OTA RTT.
/// Building it is O(session); each window mapped or broken down through it
/// then costs only what that window's packets touch.
pub struct PduIndex<'a> {
    qxdm: &'a QxdmLog,
    dir: Direction,
    pdus: Vec<DedupedPdu>,
    /// Positions of LI-split PDUs, ascending.
    bridge_at: Vec<u32>,
    /// `key_start[k]..key_start[k + 1]` is the run of `starts` holding, in
    /// ascending order, the positions whose `first2` reads `k` big-endian.
    key_start: Vec<u32>,
    starts: Vec<u32>,
    /// Median first-hop OTA RTT in seconds (0.06 without poll/STATUS
    /// pairs): the burst threshold of [`net_latency_breakdown`].
    est_ota: f64,
}

impl<'a> PduIndex<'a> {
    /// Index the `dir` PDU records of `qxdm`.
    pub fn new(qxdm: &'a QxdmLog, dir: Direction) -> Self {
        let pdus = dedup_first_transmissions(qxdm, dir);
        assert!(
            pdus.len() < u32::MAX as usize,
            "PDU positions are stored as u32"
        );
        let key = |p: &DedupedPdu| u16::from_be_bytes(p.rec.first2) as usize;
        // Counting sort on the 16-bit key: count key k at slot k + 2, so
        // after the prefix sum slot k + 1 holds the start of k's run; the
        // fill advances it to the start of k + 1, leaving slot k = start(k).
        let mut key_start = vec![0u32; (1 << 16) + 2];
        for p in &pdus {
            key_start[key(p) + 2] += 1;
        }
        for k in 1..key_start.len() {
            key_start[k] += key_start[k - 1];
        }
        let mut starts = vec![0u32; pdus.len()];
        for (i, p) in pdus.iter().enumerate() {
            let slot = &mut key_start[key(p) + 1];
            starts[*slot as usize] = i as u32;
            *slot += 1;
        }
        key_start.pop();
        let bridge_at = pdus
            .iter()
            .enumerate()
            .filter(|(_, p)| p.rec.li.is_some_and(|li| li < p.rec.payload_len))
            .map(|(i, _)| i as u32)
            .collect();
        // One sort, in place — the reference copies the samples first.
        let rtts: Vec<f64> = super::radio::first_hop_ota_rtts(qxdm, dir)
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .collect();
        let est_ota = if rtts.is_empty() {
            0.06
        } else {
            Cdf::from_vec(rtts).quantile(0.5)
        };
        PduIndex {
            qxdm,
            dir,
            pdus,
            bridge_at,
            key_start,
            starts,
            est_ota,
        }
    }

    /// Positions of the PDUs whose first two payload bytes are `key`,
    /// ascending.
    fn starts_of(&self, key: [u8; 2]) -> &[u32] {
        let k = u16::from_be_bytes(key) as usize;
        &self.starts[self.key_start[k] as usize..self.key_start[k + 1] as usize]
    }
}

/// Map captured IP packets of one direction onto PDU chains through the
/// direction's [`PduIndex`]. Packets and PDUs must be in time order (they
/// are: RLC is FIFO with in-sequence delivery).
///
/// The chain-start scan is indexed: each packet inspects only the PDUs
/// that *could* start its chain — those whose first two payload bytes
/// match its head, and the bridge candidates — instead of walking the
/// whole scan window. Output is byte-identical to
/// [`reference::long_jump_map_with`] — candidates are visited in exactly
/// the reference scan order (ascending position, boundary-start before
/// bridge at equal positions); the differential property tests in
/// `tests/differential.rs` hold the two implementations equal.
pub fn long_jump_map(
    packets: &[(SimTime, &IpPacket)],
    index: &PduIndex,
    opts: MapperOptions,
) -> Vec<MappedPacket> {
    let pdus = &index.pdus;
    let bridge_at: &[u32] = if opts.bridge_rescue {
        &index.bridge_at
    } else {
        &[]
    };
    drive_map(
        packets,
        pdus,
        opts,
        |pkt| pkt.wire_view(),
        |wire, cursor, hi| {
            // Every packet has at least `HEADER_BYTES` (40) wire bytes, so
            // its first two bytes always make a key.
            let starts = index.starts_of([wire.at(0), wire.at(1)]);
            let mut si = starts.partition_point(|&j| (j as usize) < cursor);
            let mut bi = bridge_at.partition_point(|&j| (j as usize) < cursor);
            loop {
                let sj = starts.get(si).map(|&j| j as usize).filter(|&j| j < hi);
                let bj = bridge_at.get(bi).map(|&j| j as usize).filter(|&j| j < hi);
                let j = match (sj, bj) {
                    (Some(a), Some(b)) => a.min(b),
                    (Some(a), None) => a,
                    (None, Some(b)) => b,
                    (None, None) => return None,
                };
                // Reference scan order: at each position a boundary-start
                // match is tried before a bridge.
                if sj == Some(j) {
                    si += 1;
                    if let Some((last, sns)) = try_chain(wire, pdus, 0, j, j) {
                        return Some((j, last, sns));
                    }
                }
                if bj == Some(j) {
                    bi += 1;
                    let rec = &pdus[j].rec;
                    let li = rec.li.expect("bridge candidates carry an LI");
                    let bridged = (rec.payload_len - li) as usize;
                    if let Some((last, sns)) = try_chain(wire, pdus, bridged, j + 1, j) {
                        return Some((j, last, sns));
                    }
                }
            }
        },
    )
}

/// The mapper driver: cursor advance, bridge carry, and gap credit are
/// shared between the indexed mapper and the naive reference; only the
/// wire representation and the chain-start scan strategy differ.
/// `scan(wire, cursor, hi)` must return the first viable chain in
/// `[cursor, hi)` as `(first, last, sns)`.
fn drive_map<W: WireAccess>(
    packets: &[(SimTime, &IpPacket)],
    pdus: &[DedupedPdu],
    opts: MapperOptions,
    mut wire_of: impl FnMut(&IpPacket) -> W,
    mut scan: impl FnMut(&W, usize, usize) -> Option<(usize, usize, Vec<u32>)>,
) -> Vec<MappedPacket> {
    let mut out = Vec::with_capacity(packets.len());
    let mut cursor = 0usize;
    // Bytes of the *next* packet already consumed by a bridge PDU:
    // (pdu index, byte count).
    let mut carry: Option<(usize, u32)> = None;

    // Remaining "gap credit" at the current cursor: how many more missing
    // records the sequence gap before `pdus[cursor]` can still absorb.
    let mut gap_credit: (usize, u32) = (usize::MAX, 0);

    for (captured_at, pkt) in packets {
        let wire = wire_of(pkt);
        let mut result: Option<(usize, usize, Vec<u32>)> = None;

        if let Some((cidx, cbytes)) = carry {
            if let Some((last, sns)) = try_chain(&wire, pdus, cbytes as usize, cidx + 1, cidx) {
                result = Some((cidx, last, sns));
            }
            carry = None;
        }
        // A sequence gap right at the cursor means QxDM lost the records
        // carrying this packet ("causing missing mappings for the
        // corresponding IP packets", §5.4.2). Without this check a packet
        // with no distinguishing interior bytes (a bare 40-byte ACK) would
        // happily match the *next* packet's identical-looking PDU and
        // desynchronize every mapping after it. The SN jump says how many
        // records vanished; the gap absorbs as many packets as those
        // records plausibly carried.
        if result.is_none() && opts.gap_credit {
            if let Some(p) = pdus.get(cursor) {
                if p.gap_before > 0 && gap_credit.0 != cursor {
                    gap_credit = (cursor, p.gap_before);
                }
                if gap_credit.0 == cursor && gap_credit.1 > 0 {
                    let per_record = p.rec.payload_len.max(1) as u32;
                    let est = (wire.len() as u32).div_ceil(per_record).max(1);
                    gap_credit.1 = gap_credit.1.saturating_sub(est);
                    out.push(MappedPacket {
                        packet_id: pkt.id,
                        captured_at: *captured_at,
                        sns: Vec::new(),
                        first_pdu_at: None,
                        last_pdu_at: None,
                    });
                    continue;
                }
            }
        }
        if result.is_none() {
            // Scan for a chain start. Two candidate shapes per position:
            // (a) a PDU whose first two payload bytes match the packet head
            //     (the packet starts at a PDU boundary);
            // (b) a PDU with an LI splitting it mid-payload — the packet
            //     may start right after that boundary (bridge PDU). This is
            //     how the walk re-synchronizes after a missing QxDM record:
            //     on 3G uplink, concatenation makes almost every packet
            //     start mid-PDU, so without (b) one lost record would
            //     cascade into unmapped packets forever.
            let hi = (cursor + opts.scan_window).min(pdus.len());
            result = scan(&wire, cursor, hi);
        }

        match result {
            Some((first, last, sns)) => {
                // Advance the cursor; compute the next packet's carry from
                // the closing PDU's LI.
                let closing = &pdus[last].rec;
                if let Some(li) = closing.li {
                    if li < closing.payload_len {
                        carry = Some((last, (closing.payload_len - li) as u32));
                    }
                }
                cursor = last + 1;
                out.push(MappedPacket {
                    packet_id: pkt.id,
                    captured_at: *captured_at,
                    sns,
                    first_pdu_at: Some(pdus[first].at),
                    last_pdu_at: Some(pdus[last].at),
                });
            }
            None => out.push(MappedPacket {
                packet_id: pkt.id,
                captured_at: *captured_at,
                sns: Vec::new(),
                first_pdu_at: None,
                last_pdu_at: None,
            }),
        }
    }
    out
}

/// Attempt to walk a chain covering `wire` starting with `cum` bytes
/// already consumed (bridge carry) at PDU index `start_j`. Returns the last
/// PDU index and the chain's sequence numbers (including the bridge PDU).
fn try_chain<W: WireAccess>(
    wire: &W,
    pdus: &[DedupedPdu],
    mut cum: usize,
    start_j: usize,
    first_idx: usize,
) -> Option<(usize, Vec<u32>)> {
    let total = wire.len();
    let mut sns = Vec::new();
    if first_idx < start_j {
        sns.push(pdus[first_idx].rec.sn);
        if cum >= total {
            // A bridge carry as large as the whole packet would mean two
            // boundaries in one PDU, which 40-byte minimum packets make
            // impossible — reject rather than accept unverifiable content.
            return None;
        }
    }
    let mut j = start_j;
    loop {
        let pdu = pdus.get(j)?;
        // Match the first two payload bytes against the packet content at
        // the cumulative offset ("after matching these 2 bytes we skip over
        // the rest of the PDU" — the long jump).
        let ok = if cum + 1 < total {
            pdu.rec.first2 == [wire.at(cum), wire.at(cum + 1)]
        } else if cum < total {
            pdu.rec.first2[0] == wire.at(cum)
        } else {
            false
        };
        if !ok {
            return None;
        }
        sns.push(pdu.rec.sn);
        match pdu.rec.li {
            Some(li) => {
                // "We use the LI to map the end of an IP packet. If the
                // cumulative mapped index equals the size of the IP packet,
                // we have found a mapping; otherwise no mapping."
                if cum + li as usize == total {
                    return Some((j, sns));
                }
                return None;
            }
            None => {
                cum += pdu.rec.payload_len as usize;
                if cum >= total {
                    return None; // ran past the packet without a boundary
                }
                j += 1;
            }
        }
    }
}

/// Mapping quality against ground truth (Table 3's mapping ratios).
#[derive(Debug, Clone, Copy)]
pub struct MappingScore {
    /// Packets considered.
    pub total: usize,
    /// Fraction of packets with a mapping.
    pub mapped_ratio: f64,
    /// Fraction of *mapped* packets whose PDU chain matches ground truth
    /// exactly.
    pub correct_ratio: f64,
}

/// One direction's ground-truth PDU coverage, built once and shared by
/// every mapping scored against it: every (packet id, sn) coverage pair,
/// sorted and deduplicated, so each packet's sns are one sorted slice
/// (retransmissions reuse their sn and collapse into one entry).
pub struct TruthCovers {
    covers: Vec<(u64, u32)>,
}

impl TruthCovers {
    /// Collect the `dir` coverage pairs of the ground-truth log.
    pub fn new(truth: &RecordLog<PduEvent>, dir: Direction) -> Self {
        // The log is nearly sorted already: the RLC FIFO carries packets in
        // id order, and mostly retransmissions step back. So only the pairs
        // that step back are sorted, then merged into the in-order run.
        let mut run: Vec<(u64, u32)> = Vec::new();
        let mut behind = Vec::new();
        let pairs = truth
            .iter()
            .filter(|(_, ev)| ev.pdu.dir == dir)
            .flat_map(|(_, ev)| ev.coverage().map(move |(pkt_id, _)| (pkt_id, ev.pdu.sn)));
        for pair in pairs {
            if run.last().is_some_and(|last| pair < *last) {
                behind.push(pair);
            } else {
                run.push(pair);
            }
        }
        behind.sort_unstable();
        let mut covers = Vec::with_capacity(run.len() + behind.len());
        let mut behind = behind.into_iter().peekable();
        for pair in run {
            while let Some(b) = behind.next_if(|b| *b < pair) {
                covers.push(b);
            }
            covers.push(pair);
        }
        covers.extend(behind);
        covers.dedup();
        TruthCovers { covers }
    }
}

/// Score a mapping against the ground-truth PDU coverage of its direction.
pub fn score_mapping(mapped: &[MappedPacket], truth: &TruthCovers) -> MappingScore {
    let covers = &truth.covers;
    let total = mapped.len();
    if total == 0 {
        return MappingScore {
            total: 0,
            mapped_ratio: 0.0,
            correct_ratio: 0.0,
        };
    }
    let mut mapped_n = 0usize;
    let mut correct_n = 0usize;
    let mut got = Vec::new();
    for m in mapped {
        if !m.mapped() {
            continue;
        }
        mapped_n += 1;
        let lo = covers.partition_point(|&(id, _)| id < m.packet_id);
        let hi = lo + covers[lo..].partition_point(|&(id, _)| id == m.packet_id);
        got.clear();
        got.extend_from_slice(&m.sns);
        got.sort_unstable();
        got.dedup();
        if hi > lo
            && covers[lo..hi]
                .iter()
                .map(|&(_, sn)| sn)
                .eq(got.iter().copied())
        {
            correct_n += 1;
        }
    }
    MappingScore {
        total,
        mapped_ratio: mapped_n as f64 / total as f64,
        correct_ratio: if mapped_n == 0 {
            0.0
        } else {
            correct_n as f64 / mapped_n as f64
        },
    }
}

// ---------------------------------------------------------------------
// Fine-grained network latency breakdown (Fig. 8 / Fig. 9)
// ---------------------------------------------------------------------

/// The four components of Fig. 9.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetLatencyBreakdown {
    /// IP packet handed to RLC → first PDU transmitted (channel idle).
    pub ip_to_rlc: SimDuration,
    /// Time inside RLC transmission bursts.
    pub rlc_tx: SimDuration,
    /// First-hop OTA RTTs the device explicitly waited for.
    pub ota: SimDuration,
    /// Everything else (core network, server, …).
    pub other: SimDuration,
    /// End-to-end network latency of the window.
    pub total: SimDuration,
}

/// Break down the network latency of a QoE window (§7.2's Fig. 8
/// methodology), for the direction carrying the bulk data: the direction
/// of `index`, whose median first-hop OTA RTT separates bursts from waits.
///
/// The "was the channel busy in between" checks run against a [`TimeIndex`]
/// over the window's PDU transmission times — O(log n) per mapped packet
/// and per STATUS instead of the reference implementation's rescan of the
/// whole PDU vector ([`reference::net_latency_breakdown`] retains that
/// shape; the differential tests hold the two equal). With the OTA
/// estimate taken from the index, the cost is O(window).
pub fn net_latency_breakdown(
    window_start: SimTime,
    window_end: SimTime,
    network_latency: SimDuration,
    mapped: &[MappedPacket],
    index: &PduIndex,
) -> NetLatencyBreakdown {
    let (qxdm, dir, est_ota) = (index.qxdm, index.dir, index.est_ota);
    let mut out = NetLatencyBreakdown {
        total: network_latency,
        ..Default::default()
    };
    // All PDU transmission times in the window for this direction, indexed.
    // The window slice is time-sorted, so the index build is a filter pass.
    let pdu_times = TimeIndex::new(
        qxdm.pdus
            .window(window_start, window_end)
            .iter()
            .filter(|e| e.record.dir == dir)
            .map(|e| e.at)
            .collect(),
    );
    if pdu_times.is_empty() {
        out.other = network_latency;
        return out;
    }
    // RLC transmission delay: sum of inter-PDU gaps within bursts
    // (gap < estimated OTA RTT).
    for w in pdu_times.as_slice().windows(2) {
        let gap = w[1].saturating_since(w[0]).as_secs_f64();
        if gap < est_ota {
            out.rlc_tx += SimDuration::from_secs_f64(gap);
        }
    }

    // IP-to-RLC delay: packet capture → first mapped PDU, counted only when
    // no other PDU was transmitted in between (channel idle on arrival).
    // Uplink only: the capture tap sits at the phone's IP boundary, so a
    // downlink packet is captured *after* its PDUs — a positive gap there
    // can only be a mapper mismatch, and summed over a bulk download those
    // artifacts would dwarf every real component.
    if dir == Direction::Uplink {
        for m in mapped {
            let (Some(first), true) = (m.first_pdu_at, m.mapped()) else {
                continue;
            };
            if m.captured_at < window_start || m.captured_at > window_end {
                continue;
            }
            if !pdu_times.any_in_open(m.captured_at, first) && first > m.captured_at {
                out.ip_to_rlc += first.saturating_since(m.captured_at);
            }
        }
    }

    // First-hop OTA delay: STATUS waits with no transmission in between
    // ("the device explicitly waits for").
    let polls = TimeIndex::new(
        qxdm.pdus
            .window(window_start, window_end)
            .iter()
            .filter(|e| e.record.dir == dir && e.record.poll)
            .map(|e| e.at)
            .collect(),
    );
    for st in qxdm.statuses.window(window_start, window_end) {
        if st.record.data_dir != dir {
            continue;
        }
        let Some(poll_at) = polls.last_at_or_before(st.at) else {
            continue;
        };
        if !pdu_times.any_in_open(poll_at, st.at) {
            out.ota += st.at.saturating_since(poll_at);
        }
    }

    let accounted = out.ip_to_rlc + out.rlc_tx + out.ota;
    out.other = network_latency.saturating_sub(accounted);
    out
}

// ---------------------------------------------------------------------
// Naive reference implementations
// ---------------------------------------------------------------------

/// The pre-index implementations, retained verbatim as the differential
/// oracle: the optimized mapper and latency attribution must produce
/// *identical* output (`tests/differential.rs`), and the before/after
/// benches measure against these (`cargo bench`).
pub mod reference {
    use super::*;

    /// Linear chain-start scan over `[cursor, hi)` — the original O(window)
    /// per-packet walk.
    fn scan_linear<W: WireAccess>(
        wire: &W,
        pdus: &[DedupedPdu],
        cursor: usize,
        hi: usize,
        opts: &MapperOptions,
    ) -> Option<(usize, usize, Vec<u32>)> {
        for j in cursor..hi {
            let first2_ok = match wire.len() {
                0 => false,
                1 => pdus[j].rec.first2[0] == wire.at(0),
                _ => pdus[j].rec.first2 == [wire.at(0), wire.at(1)],
            };
            if first2_ok {
                if let Some((last, sns)) = try_chain(wire, pdus, 0, j, j) {
                    return Some((j, last, sns));
                }
            }
            if opts.bridge_rescue {
                if let Some(li) = pdus[j].rec.li {
                    if li < pdus[j].rec.payload_len {
                        let bridged = (pdus[j].rec.payload_len - li) as usize;
                        if let Some((last, sns)) = try_chain(wire, pdus, bridged, j + 1, j) {
                            return Some((j, last, sns));
                        }
                    }
                }
            }
        }
        None
    }

    /// [`super::long_jump_map`] with the original linear scan over
    /// eagerly materialized wire bytes, rebuilding its PDU list per call.
    pub fn long_jump_map_with(
        packets: &[(SimTime, &IpPacket)],
        qxdm: &QxdmLog,
        dir: Direction,
        opts: MapperOptions,
    ) -> Vec<MappedPacket> {
        let pdus = dedup_first_transmissions(qxdm, dir);
        drive_map(
            packets,
            &pdus,
            opts,
            |pkt| pkt.wire_bytes(),
            |wire, cursor, hi| scan_linear(wire, &pdus, cursor, hi, &opts),
        )
    }

    /// [`super::net_latency_breakdown`] with the original per-query rescans
    /// of the PDU timestamp vector.
    pub fn net_latency_breakdown(
        window_start: SimTime,
        window_end: SimTime,
        network_latency: SimDuration,
        mapped: &[MappedPacket],
        qxdm: &QxdmLog,
        dir: Direction,
    ) -> NetLatencyBreakdown {
        let mut out = NetLatencyBreakdown {
            total: network_latency,
            ..Default::default()
        };
        let pdu_times: Vec<SimTime> = qxdm
            .pdus
            .window(window_start, window_end)
            .iter()
            .filter(|e| e.record.dir == dir)
            .map(|e| e.at)
            .collect();
        if pdu_times.is_empty() {
            out.other = network_latency;
            return out;
        }
        let rtts: Vec<f64> = crate::analyze::radio::first_hop_ota_rtts(qxdm, dir)
            .iter()
            .map(|(_, d)| d.as_secs_f64())
            .collect();
        let est_ota = if rtts.is_empty() {
            0.06
        } else {
            Cdf::of(&rtts).quantile(0.5)
        };
        for w in pdu_times.windows(2) {
            let gap = w[1].saturating_since(w[0]).as_secs_f64();
            if gap < est_ota {
                out.rlc_tx += SimDuration::from_secs_f64(gap);
            }
        }
        if dir == Direction::Uplink {
            for m in mapped {
                let (Some(first), true) = (m.first_pdu_at, m.mapped()) else {
                    continue;
                };
                if m.captured_at < window_start || m.captured_at > window_end {
                    continue;
                }
                let intervening = pdu_times.iter().any(|t| *t > m.captured_at && *t < first);
                if !intervening && first > m.captured_at {
                    out.ip_to_rlc += first.saturating_since(m.captured_at);
                }
            }
        }
        let polls: Vec<SimTime> = qxdm
            .pdus
            .window(window_start, window_end)
            .iter()
            .filter(|e| e.record.dir == dir && e.record.poll)
            .map(|e| e.at)
            .collect();
        for st in qxdm.statuses.window(window_start, window_end) {
            if st.record.data_dir != dir {
                continue;
            }
            let idx = polls.partition_point(|p| *p <= st.at);
            if idx == 0 {
                continue;
            }
            let poll_at = polls[idx - 1];
            let busy_between = pdu_times.iter().any(|t| *t > poll_at && *t < st.at);
            if !busy_between {
                out.ota += st.at.saturating_since(poll_at);
            }
        }
        let accounted = out.ip_to_rlc + out.rlc_tx + out.ota;
        out.other = network_latency.saturating_sub(accounted);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::StartKind;
    use netstack::{IpAddr, Proto, SocketAddr, TcpFlags, TcpHeader};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn pkt(dir: Direction, id: u64, len: u32) -> PacketRecord {
        let phone = SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000);
        let server = SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443);
        let (src, dst) = match dir {
            Direction::Uplink => (phone, server),
            Direction::Downlink => (server, phone),
        };
        PacketRecord {
            dir,
            pkt: IpPacket {
                id,
                src,
                dst,
                proto: Proto::Tcp,
                tcp: Some(TcpHeader {
                    seq: id,
                    ack: 0,
                    flags: TcpFlags {
                        ack: true,
                        ..Default::default()
                    },
                }),
                payload_len: len,
                udp_payload: None,
                markers: Vec::new(),
            },
        }
    }

    fn record(start_ms: u64, end_ms: u64) -> BehaviorRecord {
        BehaviorRecord {
            action: "x".into(),
            start: t(start_ms),
            end: t(end_ms),
            start_kind: StartKind::Trigger,
            mean_parse: SimDuration::ZERO,
            timed_out: false,
        }
    }

    #[test]
    fn breakdown_attributes_network_span() {
        let mut trace = RecordLog::new();
        trace.push(t(100), pkt(Direction::Uplink, 1, 1000));
        trace.push(t(900), pkt(Direction::Downlink, 2, 500));
        let rec = record(0, 2_000);
        let b = window_breakdown(&rec, &trace);
        assert_eq!(b.user_latency, SimDuration::from_millis(2_000));
        assert_eq!(b.network_latency, SimDuration::from_millis(800));
        assert_eq!(b.device_latency, SimDuration::from_millis(1_200));
        assert!(!b.response_outside_window);
    }

    #[test]
    fn local_echo_leaves_window_empty() {
        let mut trace = RecordLog::new();
        // Upload happens entirely after the QoE window (async local echo).
        trace.push(t(3_000), pkt(Direction::Uplink, 1, 1000));
        trace.push(t(3_500), pkt(Direction::Downlink, 2, 500));
        let rec = record(0, 1_000);
        let b = window_breakdown(&rec, &trace);
        assert_eq!(b.network_latency, SimDuration::ZERO);
        assert_eq!(b.device_latency, b.user_latency);
        assert!(b.response_outside_window);
    }

    /// Build a QxDM log + truth from an RLC channel run, then map.
    fn run_mapping_scenario(
        record_loss: f64,
        n_packets: u64,
    ) -> (Vec<MappedPacket>, RecordLog<PduEvent>) {
        use radio::qxdm::{Qxdm, QxdmConfig};
        use radio::rlc::{RlcChannel, RlcConfig};
        use simcore::DetRng;

        let mut cfg = RlcConfig::umts_uplink();
        cfg.pdu_loss = 0.0;
        cfg.ota_jitter = 0.0;
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(9));
        let mut packets = Vec::new();
        for i in 0..n_packets {
            let rec = pkt(Direction::Uplink, i + 1, 200 + ((i * 37) % 900) as u32);
            packets.push((t(i), rec.pkt));
            ch.enqueue(packets.last().unwrap().1.clone(), SimTime::ZERO);
        }
        let mut qx = Qxdm::new(
            QxdmConfig {
                ul_record_loss: record_loss,
                dl_record_loss: record_loss,
                log_pdus: true,
            },
            DetRng::seed_from_u64(10),
        );
        let mut now = SimTime::ZERO;
        for _ in 0..1_000_000 {
            ch.poll(now, true, 1e6);
            let mut events = Vec::new();
            ch.take_pdu_events(now, &mut events);
            for (at, ev) in events {
                qx.observe_pdu(at, &ev);
            }
            let mut events = Vec::new();
            ch.take_status_events(now, &mut events);
            for (at, ev) in events {
                qx.observe_status(at, &ev);
            }
            ch.take_exits(now, &mut Vec::new());
            match ch.next_wake(true) {
                Some(w) if w > now => now = w,
                Some(_) => continue,
                None => break,
            }
        }
        let pkt_refs: Vec<(SimTime, &IpPacket)> = packets.iter().map(|(at, p)| (*at, p)).collect();
        let index = PduIndex::new(&qx.log, Direction::Uplink);
        let mapped = long_jump_map(&pkt_refs, &index, MapperOptions::default());
        (mapped, qx.truth)
    }

    #[test]
    fn perfect_log_maps_every_packet_correctly() {
        let (mapped, truth) = run_mapping_scenario(0.0, 40);
        let score = score_mapping(&mapped, &TruthCovers::new(&truth, Direction::Uplink));
        assert_eq!(score.total, 40);
        assert!((score.mapped_ratio - 1.0).abs() < 1e-9, "{score:?}");
        assert!((score.correct_ratio - 1.0).abs() < 1e-9, "{score:?}");
    }

    #[test]
    fn lossy_log_maps_most_packets() {
        let (mapped, truth) = run_mapping_scenario(0.01, 150);
        let score = score_mapping(&mapped, &TruthCovers::new(&truth, Direction::Uplink));
        assert!(score.mapped_ratio > 0.6, "{score:?}");
        assert!(score.mapped_ratio < 1.0, "{score:?}");
        // Whatever maps, maps correctly.
        assert!(score.correct_ratio > 0.95, "{score:?}");
    }
}
