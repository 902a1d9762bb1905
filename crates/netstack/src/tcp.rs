//! TCP connection state machine.
//!
//! A byte-counting TCP implementation sufficient to reproduce the transport
//! behaviours the paper's findings depend on: slow start and congestion
//! avoidance (throughput ramp on video flows), fast retransmit/recovery and
//! retransmission timeouts (the bursty-throughput signature of traffic
//! *policing* vs the smooth plateau of traffic *shaping*, Finding 7), and
//! RTT estimation. Applications deal in byte counts; payload content is
//! materialized deterministically at the wire (see [`crate::packet`]).
//!
//! Sequence numbering follows TCP convention: the SYN occupies sequence 0,
//! stream byte `i` occupies sequence `1 + i`, and the FIN occupies one
//! sequence number after the last data byte.

use crate::addr::SocketAddr;
use crate::packet::{IpPacket, Proto, TcpFlags, TcpHeader, MSS};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Initial congestion window in segments (RFC 6928).
pub const INIT_CWND_SEGS: u32 = 10;
/// Lower bound on the retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(400);
/// Upper bound on the retransmission timeout.
pub const MAX_RTO: SimDuration = SimDuration::from_secs(60);

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Client sent (or is about to send) a SYN.
    SynSent,
    /// Server received a SYN and is answering with SYN-ACK.
    SynReceived,
    /// Three-way handshake complete; data may flow.
    Established,
    /// Both directions closed.
    Closed,
}

/// Counters the transport-layer analyzer reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpStats {
    /// Data segments transmitted (first transmissions).
    pub segments_sent: u64,
    /// Data segments retransmitted (timeout or fast retransmit).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Payload bytes acknowledged by the peer.
    pub bytes_acked: u64,
    /// Payload bytes delivered in order to the local application.
    pub bytes_received: u64,
}

#[derive(Debug, Clone, Copy)]
struct Segment {
    len: u32,
    sent_at: SimTime,
    retransmitted: bool,
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    /// Local endpoint.
    pub local: SocketAddr,
    /// Remote endpoint.
    pub remote: SocketAddr,
    state: TcpState,
    /// True if this endpoint initiated the connection.
    initiator: bool,
    syn_sent_at: Option<SimTime>,

    // ---- send side ----
    /// Total stream bytes the application has asked to send.
    snd_queued: u64,
    /// Oldest unacknowledged sequence number.
    snd_una: u64,
    /// Next sequence number to transmit.
    snd_nxt: u64,
    app_closed: bool,
    fin_seq: Option<u64>,
    cwnd: f64,
    ssthresh: f64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: f64,
    backoff: u32,
    rto_deadline: Option<SimTime>,
    dup_acks: u32,
    in_recovery: bool,
    recover: u64,
    inflight: BTreeMap<u64, Segment>,
    /// Sequence number queued for retransmission (at most one at a time —
    /// NewReno retransmits one hole per ack/timeout event).
    pending_retransmit: Option<u64>,
    /// When the most recent retransmission was sent. RTT samples are only
    /// taken from segments transmitted after this point (Karn's algorithm,
    /// extended): a cumulative ack that jumps over hole-filled
    /// out-of-order data would otherwise yield multi-second "RTTs" and
    /// blow up the RTO under lossy (policed) links.
    last_retx_at: Option<SimTime>,

    // ---- receive side ----
    /// Next expected sequence number.
    rcv_nxt: u64,
    out_of_order: BTreeMap<u64, u32>,
    remote_fin_seq: Option<u64>,
    fin_received: bool,
    /// In-order payload bytes not yet taken by the application.
    rx_unread: u64,
    need_ack: bool,

    /// Outgoing stream markers: `(stream_end_seq, marker)` (see
    /// [`IpPacket::markers`]). Retained until acknowledged so
    /// retransmissions re-carry them.
    marker_out: Vec<(u64, u64)>,
    /// Incoming markers keyed by stream position, delivered once the
    /// in-order stream passes them.
    marker_in: std::collections::BTreeMap<u64, u64>,

    /// Transport counters.
    pub stats: TcpStats,
}

impl TcpSocket {
    /// New client socket (will send a SYN on first poll).
    pub fn connect(local: SocketAddr, remote: SocketAddr) -> TcpSocket {
        Self::new(local, remote, true, TcpState::SynSent)
    }

    /// New server socket answering an incoming SYN.
    pub fn accept_from_syn(local: SocketAddr, remote: SocketAddr) -> TcpSocket {
        let mut s = Self::new(local, remote, false, TcpState::SynReceived);
        s.need_ack = true; // triggers the SYN-ACK
        s.rcv_nxt = 1; // the peer's SYN consumed its sequence 0
        s
    }

    fn new(local: SocketAddr, remote: SocketAddr, initiator: bool, state: TcpState) -> TcpSocket {
        let cwnd = (INIT_CWND_SEGS * MSS) as f64;
        let rto = 1.0; // RFC 6298 initial RTO of 1 s
        TcpSocket {
            local,
            remote,
            state,
            initiator,
            syn_sent_at: None,
            snd_queued: 0,
            snd_una: 0,
            snd_nxt: 0,
            app_closed: false,
            fin_seq: None,
            cwnd,
            ssthresh: f64::INFINITY,
            srtt: None,
            rttvar: 0.0,
            rto,
            backoff: 0,
            rto_deadline: None,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            inflight: BTreeMap::new(),
            pending_retransmit: None,
            last_retx_at: None,
            rcv_nxt: 0,
            out_of_order: BTreeMap::new(),
            remote_fin_seq: None,
            fin_received: false,
            rx_unread: 0,
            need_ack: false,
            marker_out: Vec::new(),
            marker_in: std::collections::BTreeMap::new(),
            stats: TcpStats::default(),
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// True once the three-way handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// True once both directions have closed.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// True once the peer's FIN has been delivered in order.
    pub fn peer_closed(&self) -> bool {
        self.fin_received
    }

    /// Queue `bytes` more stream bytes for transmission.
    pub fn send(&mut self, bytes: u64) {
        assert!(!self.app_closed, "send after close");
        self.snd_queued += bytes;
    }

    /// Queue `bytes` and attach an application marker to the final byte.
    /// The peer's application receives `marker` from
    /// [`TcpSocket::take_markers`] once the stream is delivered in order
    /// through that byte. Stands in for in-band framing (request/response
    /// boundaries) that the synthetic payload bytes would otherwise encode.
    pub fn send_marked(&mut self, bytes: u64, marker: u64) {
        assert!(bytes > 0, "marked send needs at least one byte");
        self.send(bytes);
        // Stream byte k-1 (0-based) occupies sequence number k.
        self.marker_out.push((self.snd_queued, marker));
    }

    /// Markers whose stream position the in-order receive path has passed,
    /// in stream order.
    pub fn take_markers(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some((&pos, _)) = self.marker_in.first_key_value() {
            if pos < self.rcv_nxt {
                let (_, m) = self.marker_in.pop_first().expect("entry exists");
                out.push(m);
            } else {
                break;
            }
        }
        out
    }

    /// Close the send direction; a FIN follows the queued data.
    pub fn close(&mut self) {
        self.app_closed = true;
    }

    /// In-order received payload bytes not yet taken by the application.
    pub fn available(&self) -> u64 {
        self.rx_unread
    }

    /// Consume up to `max` received bytes; returns the amount taken.
    pub fn take(&mut self, max: u64) -> u64 {
        let n = max.min(self.rx_unread);
        self.rx_unread -= n;
        n
    }

    /// Total payload bytes delivered in order so far (read or not).
    pub fn total_received(&self) -> u64 {
        self.stats.bytes_received
    }

    /// True when every queued byte (and FIN, if closed) has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.stats.bytes_acked >= self.snd_queued
            && (!self.app_closed || self.fin_seq.is_none_or(|f| self.snd_una > f))
    }

    /// Congestion/debug snapshot.
    pub fn debug_state(&self) -> String {
        format!(
            "cwnd={:.0} ssthresh={:.0} una={} nxt={} queued={} rec={} dup={} backoff={} rto={:.2} inflight={} to={} rx={} deadline={:?}",
            self.cwnd, self.ssthresh, self.snd_una, self.snd_nxt, self.snd_queued,
            self.in_recovery, self.dup_acks, self.backoff, self.rto,
            self.inflight.len(), self.stats.timeouts, self.stats.retransmits,
            self.rto_deadline
        )
    }

    /// Smoothed RTT estimate, if at least one sample has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    /// Earliest instant this socket needs service (RTO expiry or pending
    /// output such as data permitted by cwnd, an ACK, a SYN or a FIN).
    pub fn next_wake(&self) -> Option<SimTime> {
        if self.has_pending_output() {
            return Some(SimTime::ZERO);
        }
        self.rto_deadline
    }

    fn has_pending_output(&self) -> bool {
        if self.pending_retransmit.is_some() {
            return true;
        }
        match self.state {
            TcpState::SynSent => self.syn_sent_at.is_none(),
            TcpState::SynReceived => self.need_ack,
            TcpState::Established => {
                self.need_ack || self.can_send_data() || self.should_send_fin()
            }
            // TIME_WAIT-style: the final ACK of the peer's FIN may still be owed.
            TcpState::Closed => self.need_ack,
        }
    }

    fn can_send_data(&self) -> bool {
        let next_byte = self.snd_nxt.saturating_sub(1); // stream offset of snd_nxt
        next_byte < self.snd_queued && self.window_room() > 0 && self.fin_seq.is_none()
    }

    fn window_room(&self) -> u64 {
        let inflight = self.snd_nxt - self.snd_una;
        (self.cwnd as u64).saturating_sub(inflight)
    }

    fn should_send_fin(&self) -> bool {
        self.app_closed
            && self.fin_seq.is_none()
            && self.snd_nxt.saturating_sub(1) >= self.snd_queued
    }

    /// Emit all packets this socket can currently send.
    ///
    /// `next_id` allocates globally unique packet ids (owned by the host).
    pub fn poll(
        &mut self,
        now: SimTime,
        next_id: &mut dyn FnMut() -> u64,
        out: &mut Vec<IpPacket>,
    ) {
        match self.state {
            TcpState::SynSent => {
                if self.syn_sent_at.is_none() {
                    self.syn_sent_at = Some(now);
                    self.snd_nxt = 1;
                    self.track_segment(
                        0,
                        0,
                        now,
                        next_id,
                        out,
                        TcpFlags {
                            syn: true,
                            ..Default::default()
                        },
                    );
                }
            }
            TcpState::SynReceived => {
                if self.need_ack {
                    self.need_ack = false;
                    if self.syn_sent_at.is_none() {
                        self.syn_sent_at = Some(now);
                        self.snd_nxt = 1;
                        self.track_segment(
                            0,
                            0,
                            now,
                            next_id,
                            out,
                            TcpFlags {
                                syn: true,
                                ack: true,
                                ..Default::default()
                            },
                        );
                    }
                }
            }
            TcpState::Established => {
                let mut sent_any = false;
                // Data within the congestion window.
                while self.can_send_data() {
                    let offset = self.snd_nxt - 1;
                    let room = self.window_room();
                    let len = (MSS as u64).min(self.snd_queued - offset).min(room) as u32;
                    if len == 0 {
                        break;
                    }
                    let seq = self.snd_nxt;
                    self.snd_nxt += len as u64;
                    self.stats.segments_sent += 1;
                    self.track_segment(
                        seq,
                        len,
                        now,
                        next_id,
                        out,
                        TcpFlags {
                            ack: true,
                            ..Default::default()
                        },
                    );
                    sent_any = true;
                }
                // FIN once all data is out.
                if self.should_send_fin() {
                    let seq = self.snd_nxt;
                    self.fin_seq = Some(seq);
                    self.snd_nxt += 1;
                    self.track_segment(
                        seq,
                        0,
                        now,
                        next_id,
                        out,
                        TcpFlags {
                            fin: true,
                            ack: true,
                            ..Default::default()
                        },
                    );
                    sent_any = true;
                }
                // Pure ACK if something arrived and nothing else carried it.
                if self.need_ack && !sent_any {
                    let pkt = self.make_packet(
                        self.snd_nxt,
                        0,
                        next_id,
                        TcpFlags {
                            ack: true,
                            ..Default::default()
                        },
                    );
                    out.push(pkt);
                }
                self.need_ack = false;
            }
            TcpState::Closed => {
                if self.need_ack {
                    self.need_ack = false;
                    let pkt = self.make_packet(
                        self.snd_nxt,
                        0,
                        next_id,
                        TcpFlags {
                            ack: true,
                            ..Default::default()
                        },
                    );
                    out.push(pkt);
                }
            }
        }
    }

    fn track_segment(
        &mut self,
        seq: u64,
        len: u32,
        now: SimTime,
        next_id: &mut dyn FnMut() -> u64,
        out: &mut Vec<IpPacket>,
        flags: TcpFlags,
    ) {
        self.inflight.insert(
            seq,
            Segment {
                len,
                sent_at: now,
                retransmitted: false,
            },
        );
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        let pkt = self.make_packet(seq, len, next_id, flags);
        out.push(pkt);
    }

    fn make_packet(
        &self,
        seq: u64,
        len: u32,
        next_id: &mut dyn FnMut() -> u64,
        flags: TcpFlags,
    ) -> IpPacket {
        let markers = if len > 0 {
            self.marker_out
                .iter()
                .filter(|(pos, _)| seq <= *pos && *pos < seq + len as u64)
                .copied()
                .collect()
        } else {
            Vec::new()
        };
        IpPacket {
            id: next_id(),
            src: self.local,
            dst: self.remote,
            proto: Proto::Tcp,
            tcp: Some(TcpHeader {
                seq,
                ack: self.rcv_nxt,
                flags,
            }),
            payload_len: len,
            udp_payload: None,
            markers,
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        let rto = (self.rto * 2f64.powi(self.backoff as i32))
            .clamp(MIN_RTO.as_secs_f64(), MAX_RTO.as_secs_f64());
        self.rto_deadline = Some(now + SimDuration::from_secs_f64(rto));
    }

    /// Handle RTO expiry if due. Returns true when a timeout fired.
    pub fn on_timer(&mut self, now: SimTime) -> bool {
        let Some(deadline) = self.rto_deadline else {
            return false;
        };
        if now < deadline {
            return false;
        }
        if self.inflight.is_empty() {
            self.rto_deadline = None;
            return false;
        }
        // Timeout: collapse to one segment, back off, retransmit the oldest.
        self.stats.timeouts += 1;
        let flight = (self.snd_nxt - self.snd_una) as f64;
        self.ssthresh = (flight / 2.0).max((2 * MSS) as f64);
        self.cwnd = MSS as f64;
        self.backoff = (self.backoff + 1).min(10);
        self.dup_acks = 0;
        self.in_recovery = false;
        self.mark_first_for_retransmit(now);
        self.arm_rto(now);
        true
    }

    /// Re-emit the oldest unacknowledged segment (after timeout or fast
    /// retransmit). The caller polls afterwards to pick up the packet.
    fn mark_first_for_retransmit(&mut self, _now: SimTime) {
        if let Some((&seq, seg)) = self.inflight.iter().next() {
            let mut seg = *seg;
            seg.retransmitted = true;
            self.inflight.insert(seq, seg);
            self.pending_retransmit = Some(seq);
        }
    }

    /// Take the queued retransmission, if any, as a packet.
    pub fn take_retransmit(
        &mut self,
        now: SimTime,
        next_id: &mut dyn FnMut() -> u64,
    ) -> Option<IpPacket> {
        let seq = self.pending_retransmit.take()?;
        let seg = *self.inflight.get(&seq)?;
        self.stats.retransmits += 1;
        self.last_retx_at = Some(now);
        let mut refreshed = seg;
        refreshed.sent_at = now;
        refreshed.retransmitted = true;
        self.inflight.insert(seq, refreshed);
        let flags = if seq == 0 {
            if self.initiator {
                TcpFlags {
                    syn: true,
                    ..Default::default()
                }
            } else {
                TcpFlags {
                    syn: true,
                    ack: true,
                    ..Default::default()
                }
            }
        } else if Some(seq) == self.fin_seq {
            TcpFlags {
                fin: true,
                ack: true,
                ..Default::default()
            }
        } else {
            TcpFlags {
                ack: true,
                ..Default::default()
            }
        };
        Some(self.make_packet(seq, seg.len, next_id, flags))
    }

    /// Process an incoming segment addressed to this socket.
    pub fn on_packet(&mut self, pkt: &IpPacket, now: SimTime) {
        let Some(hdr) = pkt.tcp else { return };
        for (pos, m) in &pkt.markers {
            self.marker_in.insert(*pos, *m);
        }
        match self.state {
            TcpState::SynSent => {
                if hdr.flags.syn && hdr.flags.ack {
                    // SYN-ACK: our SYN (seq 0) is acknowledged, their SYN
                    // consumes their seq 0.
                    self.ack_through(1, now);
                    self.rcv_nxt = 1;
                    self.state = TcpState::Established;
                    self.need_ack = true;
                }
            }
            TcpState::SynReceived => {
                if hdr.flags.ack && hdr.ack >= 1 {
                    self.ack_through(hdr.ack, now);
                    self.state = TcpState::Established;
                    if pkt.payload_len > 0 || hdr.flags.fin {
                        self.receive_data(&hdr, pkt.payload_len);
                    }
                } else if hdr.flags.syn && !hdr.flags.ack {
                    // Duplicate SYN: re-answer.
                    self.syn_sent_at = None;
                    self.need_ack = true;
                }
            }
            TcpState::Established => {
                if hdr.flags.ack {
                    self.process_ack(hdr.ack, pkt.payload_len, now);
                }
                if pkt.payload_len > 0 || hdr.flags.fin {
                    self.receive_data(&hdr, pkt.payload_len);
                }
                self.maybe_finish();
            }
            // TIME_WAIT: a retransmitted FIN means our final ACK was lost;
            // answer it again so the peer can close too.
            TcpState::Closed => {
                if hdr.flags.fin {
                    self.need_ack = true;
                }
            }
        }
    }

    fn process_ack(&mut self, ack: u64, payload_len: u32, now: SimTime) {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.apply_ack(ack, now);
            // Congestion control.
            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ack: retransmit the next hole (NewReno).
                    self.mark_first_for_retransmit(now);
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += newly as f64; // slow start
            } else {
                self.cwnd += (MSS as f64) * (MSS as f64) / self.cwnd;
            }
            self.dup_acks = 0;
            self.backoff = 0;
            // Restart or clear the RTO.
            if self.inflight.is_empty() {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
        } else if ack == self.snd_una
            && payload_len == 0
            && !self.inflight.is_empty()
            && self.snd_nxt > self.snd_una
        {
            self.dup_acks += 1;
            if self.in_recovery {
                self.cwnd += MSS as f64; // inflate during recovery
            } else if self.dup_acks == 3 {
                let flight = (self.snd_nxt - self.snd_una) as f64;
                self.ssthresh = (flight / 2.0).max((2 * MSS) as f64);
                self.cwnd = self.ssthresh + 3.0 * MSS as f64;
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.mark_first_for_retransmit(now);
            }
        }
    }

    fn apply_ack(&mut self, ack: u64, now: SimTime) {
        let mut acked_payload = 0u64;
        let mut rtt_sample: Option<f64> = None;
        let fully_acked: Vec<u64> = self
            .inflight
            .range(..ack)
            .filter(|(&seq, seg)| seq + (seg.len.max(1)) as u64 <= ack)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in fully_acked {
            let seg = self.inflight.remove(&seq).expect("segment present");
            acked_payload += seg.len as u64;
            let clean_epoch = self.last_retx_at.is_none_or(|t| seg.sent_at > t);
            if !seg.retransmitted && clean_epoch && rtt_sample.is_none() {
                rtt_sample = Some(now.saturating_since(seg.sent_at).as_secs_f64());
            }
        }
        self.snd_una = ack;
        self.stats.bytes_acked += acked_payload;
        self.marker_out.retain(|(pos, _)| *pos >= ack);
        if let Some(sample) = rtt_sample {
            self.update_rtt(sample);
        }
    }

    fn update_rtt(&mut self, sample: f64) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - sample).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * sample);
            }
        }
        self.rto = self.srtt.unwrap() + 4.0 * self.rttvar;
    }

    fn receive_data(&mut self, hdr: &TcpHeader, payload_len: u32) {
        if hdr.flags.fin {
            self.remote_fin_seq = Some(hdr.seq + payload_len as u64);
        }
        if payload_len > 0 {
            if hdr.seq + payload_len as u64 > self.rcv_nxt {
                self.out_of_order.insert(hdr.seq, payload_len);
            }
            // Coalesce in-order data.
            loop {
                let Some((&seq, &len)) = self.out_of_order.iter().next() else {
                    break;
                };
                let end = seq + len as u64;
                if seq > self.rcv_nxt {
                    break; // hole
                }
                self.out_of_order.remove(&seq);
                if end > self.rcv_nxt {
                    let new_bytes = end - self.rcv_nxt;
                    self.rcv_nxt = end;
                    self.rx_unread += new_bytes;
                    self.stats.bytes_received += new_bytes;
                }
            }
        }
        if let Some(fin_seq) = self.remote_fin_seq {
            if self.rcv_nxt == fin_seq && !self.fin_received {
                self.fin_received = true;
                self.rcv_nxt += 1;
            }
        }
        self.need_ack = true;
    }

    fn maybe_finish(&mut self) {
        let send_done = self.fin_seq.is_some_and(|f| self.snd_una > f);
        if send_done && self.fin_received {
            self.state = TcpState::Closed;
            self.rto_deadline = None;
            self.inflight.clear();
        }
    }

    fn ack_through(&mut self, ack: u64, now: SimTime) {
        self.apply_ack(ack, now);
        if self.inflight.is_empty() {
            self.rto_deadline = None;
        } else {
            self.arm_rto(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::IpAddr;

    fn addr(last: u8, port: u16) -> SocketAddr {
        SocketAddr::new(IpAddr::new(10, 0, 0, last), port)
    }

    /// Drive two sockets against each other over a perfect zero-latency wire.
    /// Returns packets exchanged.
    fn pump(a: &mut TcpSocket, b: &mut TcpSocket, now: SimTime) -> usize {
        let mut n = 0;
        let mut id = 0u64;
        for _ in 0..10_000 {
            let mut next_id = || {
                id += 1;
                id
            };
            let mut out_a = Vec::new();
            if let Some(p) = a.take_retransmit(now, &mut next_id) {
                out_a.push(p);
            }
            a.poll(now, &mut next_id, &mut out_a);
            let mut out_b = Vec::new();
            if let Some(p) = b.take_retransmit(now, &mut next_id) {
                out_b.push(p);
            }
            b.poll(now, &mut next_id, &mut out_b);
            if out_a.is_empty() && out_b.is_empty() {
                break;
            }
            n += out_a.len() + out_b.len();
            for p in out_a {
                b.on_packet(&p, now);
            }
            for p in out_b {
                a.on_packet(&p, now);
            }
        }
        n
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        pump(&mut c, &mut s, SimTime::ZERO);
        assert!(c.is_established());
        assert!(s.is_established());
    }

    #[test]
    fn data_transfer_delivers_all_bytes() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send(100_000);
        pump(&mut c, &mut s, SimTime::ZERO);
        assert_eq!(s.total_received(), 100_000);
        assert_eq!(s.available(), 100_000);
        assert!(c.all_acked());
        assert_eq!(c.stats.retransmits, 0);
    }

    #[test]
    fn bidirectional_transfer() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send(5_000);
        s.send(50_000);
        pump(&mut c, &mut s, SimTime::ZERO);
        assert_eq!(s.total_received(), 5_000);
        assert_eq!(c.total_received(), 50_000);
    }

    #[test]
    fn take_consumes_receive_buffer() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send(1_000);
        pump(&mut c, &mut s, SimTime::ZERO);
        assert_eq!(s.take(400), 400);
        assert_eq!(s.available(), 600);
        assert_eq!(s.take(10_000), 600);
        assert_eq!(s.available(), 0);
    }

    #[test]
    fn close_exchanges_fins_and_closes() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send(100);
        c.close();
        s.close();
        pump(&mut c, &mut s, SimTime::ZERO);
        assert!(c.is_closed(), "client state: {:?}", c.state());
        assert!(s.is_closed(), "server state: {:?}", s.state());
        assert!(s.peer_closed());
    }

    #[test]
    fn lost_segment_recovered_by_timeout() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        // Handshake.
        pump(&mut c, &mut s, SimTime::ZERO);
        // Send one segment and drop it.
        c.send(500);
        let mut id = 100u64;
        let mut next_id = || {
            id += 1;
            id
        };
        let mut out = Vec::new();
        c.poll(SimTime::ZERO, &mut next_id, &mut out);
        assert_eq!(out.len(), 1);
        drop(out); // segment lost
                   // Fire the retransmission timer.
        let later = SimTime::from_secs(2);
        assert!(c.on_timer(later));
        assert_eq!(c.stats.timeouts, 1);
        let retx = c
            .take_retransmit(later, &mut next_id)
            .expect("retransmission");
        s.on_packet(&retx, later);
        assert_eq!(s.total_received(), 500);
        // Deliver the ack back.
        pump(&mut c, &mut s, later);
        assert!(c.all_acked());
        assert_eq!(c.stats.retransmits, 1);
    }

    #[test]
    fn repeated_timeouts_back_off_between_min_and_max_rto() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        let mut id = 0u64;
        let mut next_id = || {
            id += 1;
            id
        };
        // Handshake with a 62.5 ms RTT: the first estimate, srtt + 4·rttvar
        // = 187.5 ms, lies below MIN_RTO (and is exact in binary, so the
        // doubled intervals are exact microsecond counts).
        let rtt = SimDuration::from_micros(62_500);
        let mut out = Vec::new();
        c.poll(SimTime::ZERO, &mut next_id, &mut out); // SYN
        for p in out.drain(..) {
            s.on_packet(&p, SimTime::ZERO);
        }
        s.poll(SimTime::ZERO, &mut next_id, &mut out); // SYN-ACK
        let t = SimTime::ZERO + rtt;
        for p in out.drain(..) {
            c.on_packet(&p, t);
        }
        assert_eq!(c.srtt(), Some(rtt));
        // One data segment; it and every retransmission of it are lost.
        c.send(500);
        c.poll(t, &mut next_id, &mut out);
        let mut armed_at = t;
        let mut intervals = Vec::new();
        for _ in 0..14 {
            let deadline = c.next_wake().expect("RTO armed while data is unacked");
            intervals.push(deadline - armed_at);
            assert!(c.on_timer(deadline));
            assert!(c.take_retransmit(deadline, &mut next_id).is_some());
            armed_at = deadline;
        }
        assert_eq!(c.stats.timeouts, 14);
        assert!(intervals.iter().all(|iv| *iv >= MIN_RTO), "{intervals:?}");
        assert_eq!(intervals[0], MIN_RTO, "187.5 ms is raised to the floor");
        // Once above the floor, each timeout doubles the interval up to MAX_RTO.
        let mut doubled = 0;
        for w in intervals.windows(2) {
            if w[0] > MIN_RTO {
                assert_eq!(w[1], (w[0] * 2).min(MAX_RTO), "{intervals:?}");
                doubled += 1;
            }
        }
        assert!(doubled >= 10, "{intervals:?}");
        assert_eq!(*intervals.iter().max().unwrap(), MAX_RTO);
        assert!(
            intervals[9..].iter().all(|iv| *iv == MAX_RTO),
            "{intervals:?}"
        );
    }

    #[test]
    fn triple_dup_ack_triggers_fast_retransmit() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        pump(&mut c, &mut s, SimTime::ZERO);
        c.send(5 * 1400);
        let mut id = 100u64;
        let mut next_id = || {
            id += 1;
            id
        };
        let mut out = Vec::new();
        c.poll(SimTime::ZERO, &mut next_id, &mut out);
        assert_eq!(out.len(), 5);
        // Drop the first segment, deliver the rest: 4 dup acks come back.
        for p in &out[1..] {
            s.on_packet(p, SimTime::ZERO);
            let mut acks = Vec::new();
            s.poll(SimTime::ZERO, &mut next_id, &mut acks);
            for a in acks {
                c.on_packet(&a, SimTime::ZERO);
            }
        }
        assert!(c.stats.timeouts == 0);
        let retx = c
            .take_retransmit(SimTime::from_millis(10), &mut next_id)
            .expect("fast retransmit queued");
        assert_eq!(retx.tcp.unwrap().seq, 1);
        s.on_packet(&retx, SimTime::from_millis(10));
        assert_eq!(s.total_received(), 5 * 1400);
    }

    #[test]
    fn out_of_order_segments_reassemble() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        pump(&mut c, &mut s, SimTime::ZERO);
        c.send(3 * 1400);
        let mut id = 100u64;
        let mut next_id = || {
            id += 1;
            id
        };
        let mut out = Vec::new();
        c.poll(SimTime::ZERO, &mut next_id, &mut out);
        assert_eq!(out.len(), 3);
        // Deliver in reverse order.
        s.on_packet(&out[2], SimTime::ZERO);
        assert_eq!(s.total_received(), 0);
        s.on_packet(&out[1], SimTime::ZERO);
        assert_eq!(s.total_received(), 0);
        s.on_packet(&out[0], SimTime::ZERO);
        assert_eq!(s.total_received(), 3 * 1400);
    }

    #[test]
    fn rtt_estimate_tracks_delay() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        pump(&mut c, &mut s, SimTime::ZERO);
        c.send(1400);
        let mut id = 100u64;
        let mut next_id = || {
            id += 1;
            id
        };
        let mut out = Vec::new();
        c.poll(SimTime::ZERO, &mut next_id, &mut out);
        s.on_packet(&out[0], SimTime::from_millis(50));
        let mut acks = Vec::new();
        s.poll(SimTime::from_millis(50), &mut next_id, &mut acks);
        c.on_packet(&acks[0], SimTime::from_millis(100));
        // The handshake (completed instantaneously in this test) contributed
        // a 0 ms first sample, so the 100 ms data sample blends in via the
        // EWMA: srtt = 0.875 * 0 + 0.125 * 100 = 12.5 ms.
        let srtt = c.srtt().expect("rtt sample");
        assert_eq!(srtt.as_millis(), 12);
    }

    #[test]
    fn markers_deliver_at_stream_positions() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send_marked(5_000, 71);
        c.send_marked(3_000, 72);
        pump(&mut c, &mut s, SimTime::ZERO);
        assert_eq!(s.take_markers(), vec![71, 72]);
        assert!(s.take_markers().is_empty(), "markers deliver once");
    }

    #[test]
    fn markers_survive_segment_loss() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        pump(&mut c, &mut s, SimTime::ZERO);
        c.send_marked(500, 99);
        let mut id = 500u64;
        let mut next_id = || {
            id += 1;
            id
        };
        let mut out = Vec::new();
        c.poll(SimTime::ZERO, &mut next_id, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].markers, vec![(500, 99)]);
        drop(out); // lost
        let later = SimTime::from_secs(2);
        assert!(c.on_timer(later));
        let retx = c
            .take_retransmit(later, &mut next_id)
            .expect("retransmission");
        assert_eq!(
            retx.markers,
            vec![(500, 99)],
            "retransmission re-carries the marker"
        );
        s.on_packet(&retx, later);
        assert_eq!(s.take_markers(), vec![99]);
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        pump(&mut c, &mut s, SimTime::ZERO);
        let before = c.cwnd;
        c.send(200 * 1400);
        pump(&mut c, &mut s, SimTime::ZERO);
        assert!(c.cwnd > before, "cwnd {} -> {}", before, c.cwnd);
    }
}
