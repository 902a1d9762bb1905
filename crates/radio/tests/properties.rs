//! Property-based tests for the radio link layer: RLC segmentation
//! partitions packets exactly, delivery stays in order under loss, and the
//! RRC machine never transmits mid-promotion.

use netstack::pcap::Direction;
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader};
use proptest::prelude::*;
use radio::rlc::{RlcChannel, RlcConfig};
use radio::rrc::{Rrc3gConfig, RrcConfig, RrcLteConfig, RrcMachine, RrcState};
use simcore::{DetRng, SimDuration, SimTime};
use std::collections::HashMap;

fn pkt(id: u64, payload: u32) -> IpPacket {
    IpPacket {
        id,
        src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
        dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
        proto: Proto::Tcp,
        tcp: Some(TcpHeader {
            seq: 1 + id,
            ack: 0,
            flags: TcpFlags::default(),
        }),
        payload_len: payload,
        udp_payload: None,
        markers: Vec::new(),
    }
}

fn drain(ch: &mut RlcChannel, rate: f64) -> (Vec<IpPacket>, Vec<radio::rlc::PduEvent>) {
    let mut exits = Vec::new();
    let mut pdus = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..5_000_000 {
        ch.poll(now, true, rate);
        let mut out = Vec::new();
        ch.take_exits(now, &mut out);
        exits.extend(out.into_iter().map(|(_, p)| p));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// PDU ground-truth coverage partitions every packet's wire bytes
    /// exactly once (counting first transmissions only), for both the
    /// fixed-payload (3G UL) and flexible (LTE) segmenters.
    #[test]
    fn segmentation_partitions_wire_bytes(
        sizes in prop::collection::vec(0u32..1400, 1..30),
        fixed in any::<bool>(),
        loss in 0u8..2,
    ) {
        let mut cfg = if fixed { RlcConfig::umts_uplink() } else { RlcConfig::lte() };
        cfg.pdu_loss = if loss == 0 { 0.0 } else { 0.05 };
        cfg.ota_jitter = 0.0;
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(5));
        let mut wire_lens = HashMap::new();
        for (i, s) in sizes.iter().enumerate() {
            let p = pkt(i as u64 + 1, *s);
            wire_lens.insert(p.id, p.wire_len() as u64);
            ch.enqueue(p, SimTime::ZERO);
        }
        let (exits, pdus) = drain(&mut ch, 2e6);
        // Every packet delivered, in order.
        prop_assert_eq!(exits.len(), sizes.len());
        let ids: Vec<u64> = exits.iter().map(|p| p.id).collect();
        prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        // Coverage sums to wire length per packet (first transmissions).
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for pdu in pdus.iter().filter(|p| !p.pdu.retransmission) {
            for (pid, bytes) in pdu.coverage() {
                *covered.entry(pid).or_default() += bytes as u64;
            }
        }
        for (pid, want) in &wire_lens {
            prop_assert_eq!(covered.get(pid).copied().unwrap_or(0), *want, "packet {}", pid);
        }
    }

    /// Fixed-payload PDUs never exceed 40 bytes and only the boundary PDUs
    /// carry a Length Indicator.
    #[test]
    fn fixed_pdus_respect_size_and_li(sizes in prop::collection::vec(0u32..900, 1..20)) {
        let mut cfg = RlcConfig::umts_uplink();
        cfg.pdu_loss = 0.0;
        let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(6));
        for (i, s) in sizes.iter().enumerate() {
            ch.enqueue(pkt(i as u64 + 1, *s), SimTime::ZERO);
        }
        let (_, pdus) = drain(&mut ch, 2e6);
        prop_assert!(pdus.iter().all(|p| p.pdu.payload_len <= 40));
        let boundaries = pdus.iter().filter(|p| p.pdu.li.is_some()).count();
        prop_assert_eq!(boundaries, sizes.len());
        for p in &pdus {
            if let Some(li) = p.pdu.li {
                prop_assert!(li <= p.pdu.payload_len);
                prop_assert!(li > 0);
            }
        }
    }

    /// The RRC machine never reports `can_transmit` during a promotion and
    /// always lands in a transmit-capable state right after one completes.
    #[test]
    fn rrc_promotion_gates_transmission(
        buffered in 1u32..100_000,
        probe_ms in prop::collection::vec(1u64..10_000, 1..20),
    ) {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(buffered, SimTime::ZERO);
        prop_assert!(m.promoting());
        let done = m.next_wake().expect("promotion scheduled");
        for ms in &probe_ms {
            let t = SimTime::from_millis(*ms);
            let mut probe = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
            probe.on_data(buffered, SimTime::ZERO);
            probe.tick(t);
            if t < done {
                prop_assert!(!probe.can_transmit(), "transmitting mid-promotion at {t}");
            } else if t == done {
                prop_assert!(probe.can_transmit());
            }
        }
    }

    /// Under arbitrary interleavings of data arrivals, timer ticks,
    /// injected promotion failures and forced tech switches, the machine
    /// never claims it can transmit from a non-transmit state, and after
    /// the dust settles it always reaches the resting low-power state with
    /// no pending work.
    #[test]
    fn rrc_survives_arbitrary_op_interleavings(
        start_lte in any::<bool>(),
        ops in prop::collection::vec((0u8..4, 1u64..8_000, 1u32..100_000), 1..40),
    ) {
        let cfg = |lte: bool| {
            if lte {
                RrcConfig::Lte(RrcLteConfig::default())
            } else {
                RrcConfig::Umts3g(Rrc3gConfig::default())
            }
        };
        let mut m = RrcMachine::new(cfg(start_lte));
        let mut lte = start_lte;
        let mut now = SimTime::ZERO;
        for (kind, delta_ms, buffered) in &ops {
            now += SimDuration::from_millis(*delta_ms);
            match kind {
                0 => m.on_data(*buffered, now),
                1 => m.tick(now),
                2 => {
                    lte = !lte;
                    m.switch_tech(cfg(lte), now);
                }
                _ => m.inject_promotion_failures(*buffered % 3, SimDuration::from_millis(500)),
            }
            // Invariant: transmit capability implies a transmit-capable
            // state and no promotion in flight.
            if m.can_transmit() {
                prop_assert!(m.state().can_transmit(), "state {:?}", m.state());
                prop_assert!(!m.promoting());
            }
            if m.promoting() {
                prop_assert!(!m.can_transmit(), "transmit during promotion");
            }
        }
        // Drive every pending timer: the machine must reach the resting
        // state of whatever technology it ended on, then go quiet.
        for _ in 0..64 {
            match m.next_wake() {
                Some(w) => {
                    now = now.max(w);
                    m.tick(now);
                }
                None => break,
            }
        }
        prop_assert_eq!(m.next_wake(), None, "machine never settles");
        let resting = if lte { RrcState::LteIdle } else { RrcState::Pch };
        prop_assert_eq!(m.state(), resting);
        prop_assert!(!m.can_transmit());
    }

    /// Demotion cascades always terminate in the low-power resting state,
    /// regardless of when we look.
    #[test]
    fn rrc_demotion_terminates_in_pch(
        buffered in 1u32..100_000,
        horizon_s in 30u64..3_600,
    ) {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(buffered, SimTime::ZERO);
        m.tick(SimTime::from_secs(horizon_s));
        prop_assert_eq!(m.state(), radio::rrc::RrcState::Pch);
        prop_assert_eq!(m.next_wake(), None);
    }
}
