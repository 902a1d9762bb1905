//! RLC (Radio Link Control) data plane.
//!
//! IP packets are segmented into PDUs and transmitted over the air. Three
//! properties of real RLC matter for the paper's findings and are modelled
//! faithfully:
//!
//! * **Fixed 40-byte payloads on the 3G uplink** (flexible elsewhere, §2).
//!   A 3G photo upload therefore explodes into ~2.5× more PDUs than LTE, and
//!   the per-PDU processing overhead makes RLC transmission delay the
//!   dominant 3G component in Fig. 8.
//! * **Concatenation with Length Indicators** (Fig. 5): one PDU may carry
//!   the tail of one IP packet and the head of the next; the LI marks the
//!   boundary. The analyzer's long-jump mapping relies on LIs to find packet
//!   ends.
//! * **ARQ with piggybacked polling** (Fig. 2): every Nth PDU (and the last
//!   PDU of a burst) carries a poll request; the receiver answers with a
//!   STATUS PDU one OTA RTT later. Lost PDUs are retransmitted after the
//!   STATUS feedback, and delivery to the upper layer is in-sequence.
//!
//! Each transmitted PDU yields a [`PduEvent`]: the [`PduRecord`] QxDM would
//! log (sequence number, length, *first two payload bytes*, LI, poll and
//! retransmission bits) plus the ground-truth packet coverage used to score
//! the mapping algorithm.

use crate::qxdm::{PduRecord, StatusRecord};
use netstack::pcap::Direction;
use netstack::IpPacket;
use simcore::{earlier, DetRng, EventQueue, SimDuration, SimTime};
use std::collections::VecDeque;

/// RLC channel parameters (one direction).
#[derive(Debug, Clone)]
pub struct RlcConfig {
    /// Fixed PDU payload size (3G uplink: 40 bytes). `None` = flexible.
    pub fixed_payload: Option<u16>,
    /// Maximum PDU payload when flexible.
    pub max_payload: u16,
    /// Per-PDU processing/framing overhead added to serialization time.
    pub per_pdu_overhead: SimDuration,
    /// Probability a transmitted PDU is lost over the air and must be
    /// retransmitted after STATUS feedback.
    pub pdu_loss: f64,
    /// A poll request is piggybacked on every Nth PDU.
    pub poll_interval: u32,
    /// Mean first-hop OTA round-trip (poll → STATUS).
    pub ota_rtt: SimDuration,
    /// Jitter fraction applied to `ota_rtt`.
    pub ota_jitter: f64,
}

impl RlcConfig {
    /// 3G uplink: fixed 40-byte PDU payloads.
    pub fn umts_uplink() -> RlcConfig {
        RlcConfig {
            fixed_payload: Some(40),
            max_payload: 40,
            per_pdu_overhead: SimDuration::from_micros(110),
            pdu_loss: 0.002,
            poll_interval: 16,
            ota_rtt: SimDuration::from_millis(60),
            ota_jitter: 0.2,
        }
    }

    /// 3G downlink: flexible PDUs up to ~500 bytes.
    pub fn umts_downlink() -> RlcConfig {
        RlcConfig {
            fixed_payload: None,
            max_payload: 500,
            per_pdu_overhead: SimDuration::from_micros(120),
            pdu_loss: 0.002,
            poll_interval: 16,
            ota_rtt: SimDuration::from_millis(60),
            ota_jitter: 0.2,
        }
    }

    /// LTE uplink: flexible PDUs sized to the per-TTI transport blocks the
    /// uplink grant allows (~140 bytes), matching the paper's observed
    /// ~2.5× fewer PDUs than the 3G 40-byte uplink for the same transfer.
    pub fn lte() -> RlcConfig {
        RlcConfig {
            fixed_payload: None,
            max_payload: 140,
            per_pdu_overhead: SimDuration::from_micros(30),
            pdu_loss: 0.001,
            poll_interval: 32,
            ota_rtt: SimDuration::from_millis(16),
            ota_jitter: 0.2,
        }
    }

    /// LTE downlink: flexible PDUs up to a full transport block.
    pub fn lte_downlink() -> RlcConfig {
        RlcConfig {
            max_payload: 1440,
            ..Self::lte()
        }
    }
}

/// Ground-truth coverage of a PDU: up to two `(packet_id, byte_count)`
/// entries (tail of one packet + head of the next).
pub type PduCoverage = [(u64, u32); 2];

/// One transmitted PDU: the QxDM record plus its ground-truth coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PduEvent {
    /// What QxDM records about the PDU. Its `sn` increments per first
    /// transmission and is reused on retransmission.
    pub pdu: PduRecord,
    /// Ground truth: which packet bytes this PDU carries.
    pub covers: PduCoverage,
    /// Number of valid entries in `covers`.
    pub covers_len: u8,
}

impl PduEvent {
    /// Iterate the ground-truth coverage entries.
    pub fn coverage(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.covers.iter().take(self.covers_len as usize).copied()
    }
}

#[derive(Debug)]
struct QueuedPacket {
    pkt: IpPacket,
    /// Lazy wire-byte view: segmentation reads two bytes per PDU, so the
    /// pseudorandom payload is never materialized.
    wire: netstack::WireView,
    cursor: usize,
    /// PDUs carrying this packet that have not yet been delivered.
    pdus_outstanding: u32,
}

/// A segmented PDU, kept for retransmission until it is delivered.
#[derive(Debug, Clone)]
struct RetxPdu {
    /// The PDU as last transmitted; `transmit` sets its poll and
    /// retransmission bits.
    ev: PduEvent,
    /// Queue sequence numbers of the packets in `ev.covers`, entry by entry.
    seqs: [u64; 2],
}

/// One direction of an RLC bearer.
pub struct RlcChannel {
    cfg: RlcConfig,
    dir: Direction,
    rng: DetRng,
    queue: VecDeque<QueuedPacket>,
    /// Queue sequence number of the front packet: queued packet `k` has
    /// sequence `front_seq + k`.
    front_seq: u64,
    /// Segmentation cursor: the first `segmented` queued packets are fully
    /// segmented (segmentation runs strictly in queue order), the rest still
    /// have bytes to send.
    segmented: usize,
    /// Bytes of queued packets not yet segmented into PDUs.
    unsent_bytes: u64,
    busy_until: SimTime,
    next_sn: u32,
    pdus_since_poll: u32,
    retx: EventQueue<RetxPdu>,
    pdu_events: EventQueue<PduEvent>,
    status_events: EventQueue<StatusRecord>,
    exits: EventQueue<IpPacket>,
    last_exit_at: SimTime,
    /// Injected retransmission storm: inside `[from, until)` the effective
    /// PDU loss is `storm_loss` instead of `cfg.pdu_loss`.
    storm: Option<(SimTime, SimTime, f64)>,
    /// Total PDU transmissions (including retransmissions).
    pub pdus_transmitted: u64,
}

impl RlcChannel {
    /// New channel for `dir` using `cfg`.
    pub fn new(cfg: RlcConfig, dir: Direction, rng: DetRng) -> RlcChannel {
        RlcChannel {
            cfg,
            dir,
            rng,
            queue: VecDeque::new(),
            front_seq: 0,
            segmented: 0,
            unsent_bytes: 0,
            busy_until: SimTime::ZERO,
            next_sn: 0,
            pdus_since_poll: 0,
            retx: EventQueue::new(),
            pdu_events: EventQueue::new(),
            status_events: EventQueue::new(),
            exits: EventQueue::new(),
            last_exit_at: SimTime::ZERO,
            storm: None,
            pdus_transmitted: 0,
        }
    }

    /// Inject a retransmission storm: PDUs transmitted in `[from, until)`
    /// are lost with probability `loss` (typically far above
    /// `cfg.pdu_loss`), driving repeated RLC retransmissions — the §6.2
    /// "RLC retransmission dominates" pathology, on demand.
    ///
    /// # Panics
    /// When `loss` is not a probability in `[0, 1]`.
    pub fn inject_storm(&mut self, from: SimTime, until: SimTime, loss: f64) {
        assert!(
            loss.is_finite() && (0.0..=1.0).contains(&loss),
            "storm loss must be a probability in [0, 1], got {loss}"
        );
        self.storm = Some((from, until, loss));
    }

    /// The PDU-loss probability in effect at `now`.
    fn pdu_loss_at(&self, now: SimTime) -> f64 {
        match self.storm {
            Some((from, until, loss)) if from <= now && now < until => loss,
            _ => self.cfg.pdu_loss,
        }
    }

    /// Accept an IP packet for transmission.
    pub fn enqueue(&mut self, pkt: IpPacket, _now: SimTime) {
        let wire = pkt.wire_view();
        self.unsent_bytes += wire.len() as u64;
        self.queue.push_back(QueuedPacket {
            pkt,
            wire,
            cursor: 0,
            pdus_outstanding: 0,
        });
    }

    /// Bytes waiting to be segmented (drives RRC promotion decisions).
    pub fn queued_bytes(&self) -> u64 {
        self.unsent_bytes
    }

    /// True when some queued packet still has bytes to segment.
    fn has_unsegmented(&self) -> bool {
        self.segmented < self.queue.len()
    }

    /// True when data or retransmissions are waiting for air time.
    pub fn has_backlog(&self) -> bool {
        self.has_unsegmented() || !self.retx.is_empty()
    }

    /// Advance the channel: transmit PDUs while the transmitter is free and
    /// transmission is allowed at `rate_bps`.
    pub fn poll(&mut self, now: SimTime, can_tx: bool, rate_bps: f64) {
        if !can_tx {
            return;
        }
        loop {
            if self.busy_until > now {
                break;
            }
            // Retransmissions take priority (RLC AM behaviour).
            if let Some((_, r)) = self.retx.pop_due(now) {
                self.transmit(now, rate_bps, r, true);
                continue;
            }
            if self.has_unsegmented() {
                let pdu = self.build_pdu();
                self.transmit(now, rate_bps, pdu, false);
                continue;
            }
            break;
        }
    }

    /// Carve the next PDU from the head of the queue.
    fn build_pdu(&mut self) -> RetxPdu {
        let target = self.cfg.fixed_payload.unwrap_or(self.cfg.max_payload) as usize;
        let mut covers: PduCoverage = [(0, 0); 2];
        let mut covers_len = 0u8;
        let mut seqs = [0u64; 2];
        let mut first2 = [0u8; 2];
        let mut li: Option<u16> = None;
        let mut filled = 0usize;

        // The first packet with bytes left sits at the segmentation cursor.
        debug_assert!(self.has_unsegmented(), "build_pdu called with backlog");
        while filled < target && covers_len < 2 {
            let Some(q) = self.queue.get_mut(self.segmented) else {
                break;
            };
            let remaining = q.wire.len() - q.cursor;
            let take = remaining.min(target - filled);
            // Record the first two payload bytes of the PDU.
            for k in 0..2usize.min(take) {
                if filled + k < 2 {
                    first2[filled + k] = q.wire.at(q.cursor + k);
                }
            }
            covers[covers_len as usize] = (q.pkt.id, take as u32);
            seqs[covers_len as usize] = self.front_seq + self.segmented as u64;
            covers_len += 1;
            q.cursor += take;
            q.pdus_outstanding += 1;
            filled += take;
            self.unsent_bytes -= take as u64;
            if q.cursor == q.wire.len() {
                self.segmented += 1;
                li = Some(filled as u16);
                // Concatenation: only continue into the next packet when
                // using fixed-size PDUs (3G uplink) and space remains.
                if self.cfg.fixed_payload.is_none() {
                    break;
                }
            } else {
                break; // packet continues into the next PDU
            }
        }
        // If the packet boundary coincided with the end of the PDU, the LI
        // is still meaningful (boundary at payload end).
        let sn = self.next_sn;
        self.next_sn += 1;
        RetxPdu {
            ev: PduEvent {
                pdu: PduRecord {
                    dir: self.dir,
                    sn,
                    payload_len: filled as u16,
                    first2,
                    li,
                    poll: false,
                    retransmission: false,
                },
                covers,
                covers_len,
            },
            seqs,
        }
    }

    fn transmit(&mut self, now: SimTime, rate_bps: f64, mut r: RetxPdu, is_retx: bool) {
        let start = self.busy_until.max(now);
        // Fixed-payload channels burn air time for padding too.
        let payload = r.ev.pdu.payload_len.max(1);
        let air_bytes = self.cfg.fixed_payload.unwrap_or(payload) as f64 + 2.0;
        let dur =
            SimDuration::from_secs_f64(air_bytes * 8.0 / rate_bps) + self.cfg.per_pdu_overhead;
        let done = start + dur;
        self.busy_until = done;
        self.pdus_transmitted += 1;

        self.pdus_since_poll += 1;
        let end_of_burst = !self.has_unsegmented() && self.retx.is_empty();
        let poll = self.pdus_since_poll >= self.cfg.poll_interval || end_of_burst;
        if poll {
            self.pdus_since_poll = 0;
        }

        let lost = self.rng.chance(self.pdu_loss_at(start));
        r.ev.pdu = PduRecord {
            poll,
            retransmission: is_retx,
            ..r.ev.pdu
        };
        self.pdu_events.push(done, r.ev);
        if poll {
            let rtt = self.rng.jittered(self.cfg.ota_rtt, self.cfg.ota_jitter);
            self.status_events.push(
                done + rtt,
                StatusRecord {
                    data_dir: self.dir,
                    acks_sn: r.ev.pdu.sn,
                },
            );
        }
        if lost {
            // Retransmit after STATUS feedback (one OTA RTT after the poll
            // that reports the gap; approximated as one RTT after this PDU).
            let feedback = self.rng.jittered(self.cfg.ota_rtt, self.cfg.ota_jitter);
            self.retx.push(done + feedback, r);
        } else {
            // Delivered: one-way OTA latency after transmission completes.
            let one_way = self.cfg.ota_rtt / 2;
            self.complete_coverage(&r, done + one_way);
        }
    }

    /// Mark a delivered PDU's packets; emit packets whose PDUs are all in.
    fn complete_coverage(&mut self, pdu: &RetxPdu, delivered_at: SimTime) {
        // A covered packet is still queued: it leaves only once every PDU
        // carrying it is delivered, and this one was not until now.
        for &seq in pdu.seqs.iter().take(pdu.ev.covers_len as usize) {
            self.queue[(seq - self.front_seq) as usize].pdus_outstanding -= 1;
        }
        // In-sequence delivery: pop completed packets from the head only.
        while let Some(head) = self.queue.front() {
            if self.segmented > 0 && head.pdus_outstanding == 0 {
                let q = self.queue.pop_front().expect("head exists");
                self.segmented -= 1;
                self.front_seq += 1;
                let at = delivered_at.max(self.last_exit_at);
                self.last_exit_at = at;
                self.exits.push(at, q.pkt);
            } else {
                break;
            }
        }
    }

    /// Packets fully delivered by `now`, with their delivery times.
    pub fn take_exits(&mut self, now: SimTime, out: &mut Vec<(SimTime, IpPacket)>) {
        while let Some(exit) = self.exits.pop_due(now) {
            out.push(exit);
        }
    }

    /// PDU transmissions completed by `now` (diagnostics feed).
    pub fn take_pdu_events(&mut self, now: SimTime, out: &mut Vec<(SimTime, PduEvent)>) {
        while let Some(ev) = self.pdu_events.pop_due(now) {
            out.push(ev);
        }
    }

    /// STATUS PDUs arrived by `now` (diagnostics feed).
    pub fn take_status_events(&mut self, now: SimTime, out: &mut Vec<(SimTime, StatusRecord)>) {
        while let Some(ev) = self.status_events.pop_due(now) {
            out.push(ev);
        }
    }

    /// Earliest instant this channel has work, given whether it may transmit.
    pub fn next_wake(&self, can_tx: bool) -> Option<SimTime> {
        let mut wake = earlier(self.exits.next_at(), self.pdu_events.next_at());
        wake = earlier(wake, self.status_events.next_at());
        if can_tx {
            if self.has_unsegmented() {
                wake = earlier(wake, Some(self.busy_until));
            }
            wake = earlier(wake, self.retx.next_at().map(|t| t.max(self.busy_until)));
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::{IpAddr, Proto, SocketAddr, TcpFlags, TcpHeader};

    fn pkt(id: u64, payload: u32) -> IpPacket {
        IpPacket {
            id,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
            dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
            proto: Proto::Tcp,
            tcp: Some(TcpHeader {
                seq: 1,
                ack: 0,
                flags: TcpFlags::default(),
            }),
            payload_len: payload,
            udp_payload: None,
            markers: Vec::new(),
        }
    }

    fn drain_all(ch: &mut RlcChannel, rate: f64) -> (Vec<(SimTime, IpPacket)>, Vec<PduEvent>) {
        let mut exits = Vec::new();
        let mut pdus = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..1_000_000 {
            ch.poll(now, true, rate);
            ch.take_exits(now, &mut exits);
            let mut evs = Vec::new();
            ch.take_pdu_events(now, &mut evs);
            pdus.extend(evs.into_iter().map(|(_, e)| e));
            ch.take_status_events(now, &mut Vec::new());
            match ch.next_wake(true) {
                Some(w) if w > now => now = w,
                Some(_) => continue,
                None => break,
            }
        }
        (exits, pdus)
    }

    fn loss_free(mut cfg: RlcConfig) -> RlcConfig {
        cfg.pdu_loss = 0.0;
        cfg.ota_jitter = 0.0;
        cfg
    }

    #[test]
    fn fixed_payload_segments_into_40_byte_pdus() {
        let cfg = loss_free(RlcConfig::umts_uplink());
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
        // 360 payload + 40 header = 400 wire bytes = exactly 10 PDUs.
        ch.enqueue(pkt(1, 360), SimTime::ZERO);
        let (exits, pdus) = drain_all(&mut ch, 1e6);
        assert_eq!(exits.len(), 1);
        assert_eq!(pdus.len(), 10);
        assert!(pdus.iter().all(|p| p.pdu.payload_len == 40));
        // Only the last PDU carries the boundary LI.
        assert_eq!(pdus.iter().filter(|p| p.pdu.li.is_some()).count(), 1);
        assert_eq!(pdus.last().unwrap().pdu.li, Some(40));
    }

    #[test]
    fn concatenation_spans_two_packets_with_li() {
        let cfg = loss_free(RlcConfig::umts_uplink());
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
        // 410 wire bytes each: second PDU chain starts mid-PDU.
        ch.enqueue(pkt(1, 370), SimTime::ZERO);
        ch.enqueue(pkt(2, 370), SimTime::ZERO);
        let (exits, pdus) = drain_all(&mut ch, 1e6);
        assert_eq!(exits.len(), 2);
        // 820 bytes / 40 = 20.5 -> 21 PDUs.
        assert_eq!(pdus.len(), 21);
        // One PDU covers both packets with LI = 10 (410 % 40).
        let bridge: Vec<&PduEvent> = pdus.iter().filter(|p| p.covers_len == 2).collect();
        assert_eq!(bridge.len(), 1);
        assert_eq!(bridge[0].pdu.li, Some(10));
        let cov: Vec<(u64, u32)> = bridge[0].coverage().collect();
        assert_eq!(cov, vec![(1, 10), (2, 30)]);
    }

    #[test]
    fn flexible_channel_uses_one_pdu_per_small_packet() {
        let cfg = loss_free(RlcConfig::lte_downlink());
        let mut ch = RlcChannel::new(cfg, Direction::Downlink, DetRng::seed_from_u64(1));
        ch.enqueue(pkt(1, 300), SimTime::ZERO);
        ch.enqueue(pkt(2, 300), SimTime::ZERO);
        let (exits, pdus) = drain_all(&mut ch, 1e7);
        assert_eq!(exits.len(), 2);
        assert_eq!(pdus.len(), 2);
        assert!(pdus
            .iter()
            .all(|p| p.covers_len == 1 && p.pdu.li == Some(340)));
    }

    #[test]
    fn flexible_channel_splits_large_packets() {
        let cfg = loss_free(RlcConfig::umts_downlink()); // 500-byte PDUs
        let mut ch = RlcChannel::new(cfg, Direction::Downlink, DetRng::seed_from_u64(1));
        ch.enqueue(pkt(1, 1400), SimTime::ZERO); // 1440 wire bytes -> 3 PDUs
        let (exits, pdus) = drain_all(&mut ch, 1e7);
        assert_eq!(exits.len(), 1);
        assert_eq!(pdus.len(), 3);
        assert_eq!(pdus[0].pdu.payload_len, 500);
        assert_eq!(pdus[2].pdu.payload_len, 440);
        assert_eq!(pdus[2].pdu.li, Some(440));
    }

    #[test]
    fn first2_matches_wire_bytes() {
        let cfg = loss_free(RlcConfig::umts_uplink());
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
        let p = pkt(1, 120); // 160 wire bytes -> 4 PDUs
        let wire = p.wire_bytes();
        ch.enqueue(p, SimTime::ZERO);
        let (_, pdus) = drain_all(&mut ch, 1e6);
        assert_eq!(pdus.len(), 4);
        for (i, ev) in pdus.iter().enumerate() {
            assert_eq!(ev.pdu.first2, [wire[i * 40], wire[i * 40 + 1]], "pdu {i}");
        }
    }

    #[test]
    fn pdu_count_ratio_3g_vs_lte_matches_paper_shape() {
        // The paper observed ~10553 3G PDUs vs ~4132 LTE PDUs (2.55x) for the
        // same upload. With 40-byte fixed UL PDUs vs large flexible PDUs the
        // ratio here is structural; assert it exceeds 2x.
        let mut ch3g = RlcChannel::new(
            loss_free(RlcConfig::umts_uplink()),
            Direction::Uplink,
            DetRng::seed_from_u64(1),
        );
        let mut chlte = RlcChannel::new(
            loss_free(RlcConfig::lte()),
            Direction::Uplink,
            DetRng::seed_from_u64(1),
        );
        for i in 0..50 {
            ch3g.enqueue(pkt(i, 1400), SimTime::ZERO);
            chlte.enqueue(pkt(i + 100, 1400), SimTime::ZERO);
        }
        let (_, pdus3g) = drain_all(&mut ch3g, 2e6);
        let (_, pduslte) = drain_all(&mut chlte, 1e7);
        let ratio = pdus3g.len() as f64 / pduslte.len() as f64;
        assert!(ratio > 2.0, "ratio {ratio}");
    }

    #[test]
    fn lost_pdus_are_retransmitted_and_packets_still_deliver() {
        let mut cfg = RlcConfig::umts_uplink();
        cfg.pdu_loss = 0.3; // heavy loss
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(7));
        for i in 0..10 {
            ch.enqueue(pkt(i, 500), SimTime::ZERO);
        }
        let (exits, pdus) = drain_all(&mut ch, 1e6);
        assert_eq!(exits.len(), 10);
        assert!(
            pdus.iter().any(|p| p.pdu.retransmission),
            "expected retransmissions"
        );
        // Delivery remains in order.
        let ids: Vec<u64> = exits.iter().map(|(_, p)| p.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        let times: Vec<SimTime> = exits.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn repeated_packet_ids_credit_each_copy_its_own_pdus() {
        // Two queued packets share an id (a restarted host reusing its
        // counter). Each is 80 wire bytes, two 40-byte PDUs. The first copy's
        // first PDU is lost and retransmitted after both of the second
        // copy's PDUs are delivered.
        let mut ch = RlcChannel::new(
            loss_free(RlcConfig::umts_uplink()),
            Direction::Uplink,
            DetRng::seed_from_u64(1),
        );
        ch.inject_storm(SimTime::ZERO, SimTime::from_micros(1), 1.0);
        ch.enqueue(pkt(7, 40), SimTime::ZERO);
        ch.enqueue(pkt(7, 40), SimTime::ZERO);
        let mut exits = Vec::new();
        let mut pdus = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..10_000 {
            ch.poll(now, true, 1e6);
            ch.take_exits(now, &mut exits);
            ch.take_pdu_events(now, &mut pdus);
            ch.take_status_events(now, &mut Vec::new());
            match ch.next_wake(true) {
                Some(w) if w > now => now = w,
                Some(_) => continue,
                None => break,
            }
        }
        assert_eq!(pdus.len(), 5, "four PDUs and one retransmission");
        let (retx_done, retx) = pdus.last().expect("pdus");
        assert!(retx.pdu.retransmission);
        assert_eq!(retx.pdu.sn, 0);
        let one_way = RlcConfig::umts_uplink().ota_rtt / 2;
        let second_copy_delivered = pdus[3].0 + one_way;
        assert!(second_copy_delivered < *retx_done);
        // Neither copy leaves before the first copy's lost PDU is in, and
        // the second copy's own PDUs were all delivered before that.
        assert_eq!(exits.len(), 2);
        for (at, p) in &exits {
            assert_eq!(p.id, 7);
            assert_eq!(*at, *retx_done + one_way);
        }
    }

    #[test]
    fn polling_produces_status_feedback() {
        let cfg = loss_free(RlcConfig::umts_uplink());
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
        ch.enqueue(pkt(1, 2000), SimTime::ZERO); // 51 PDUs -> several polls
        let mut now = SimTime::ZERO;
        let mut polls = 0;
        let mut statuses = 0;
        for _ in 0..10_000 {
            ch.poll(now, true, 1e6);
            let mut evs = Vec::new();
            ch.take_pdu_events(now, &mut evs);
            polls += evs.iter().filter(|(_, e)| e.pdu.poll).count();
            let mut sts = Vec::new();
            ch.take_status_events(now, &mut sts);
            statuses += sts.len();
            ch.take_exits(now, &mut Vec::new());
            match ch.next_wake(true) {
                Some(w) if w > now => now = w,
                Some(_) => continue,
                None => break,
            }
        }
        assert!(polls >= 3, "polls {polls}");
        assert_eq!(polls, statuses);
    }

    #[test]
    fn no_transmission_when_blocked() {
        let cfg = loss_free(RlcConfig::umts_uplink());
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
        ch.enqueue(pkt(1, 100), SimTime::ZERO);
        ch.poll(SimTime::ZERO, false, 1e6);
        let mut evs = Vec::new();
        ch.take_pdu_events(SimTime::from_secs(10), &mut evs);
        assert!(evs.is_empty());
        assert!(ch.has_backlog());
        assert_eq!(ch.next_wake(false), None);
        assert!(ch.next_wake(true).is_some());
    }

    #[test]
    fn queued_bytes_counts_remaining_wire_bytes() {
        let cfg = loss_free(RlcConfig::umts_uplink());
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
        ch.enqueue(pkt(1, 100), SimTime::ZERO);
        ch.enqueue(pkt(2, 60), SimTime::ZERO);
        assert_eq!(ch.queued_bytes(), 240);
    }
}
