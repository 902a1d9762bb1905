//! Property-based tests for the analyzers: the long-jump mapping is exact
//! on complete logs and never desynchronizes across arbitrary traffic
//! mixes; calibration is order-preserving.

use netstack::pcap::Direction;
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader};
use proptest::prelude::*;
use qoe_doctor::analyze::crosslayer::{
    long_jump_map, score_mapping, MapperOptions, PduIndex, TruthCovers,
};
use qoe_doctor::behavior::{BehaviorRecord, StartKind};
use radio::qxdm::{Qxdm, QxdmConfig};
use radio::rlc::{RlcChannel, RlcConfig};
use simcore::{DetRng, SimDuration, SimTime};

fn pkt(id: u64, payload: u32) -> IpPacket {
    IpPacket {
        id,
        src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
        dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
        proto: Proto::Tcp,
        tcp: Some(TcpHeader {
            seq: 1 + id * 1400,
            ack: 0,
            flags: TcpFlags::default(),
        }),
        payload_len: payload,
        udp_payload: None,
        markers: Vec::new(),
    }
}

/// Run a packet mix through an RLC channel into a QxDM log.
fn capture_log(
    sizes: &[u32],
    fixed: bool,
    record_loss: f64,
    seed: u64,
) -> (Vec<(SimTime, IpPacket)>, Qxdm) {
    let mut cfg = if fixed {
        RlcConfig::umts_uplink()
    } else {
        RlcConfig::umts_downlink()
    };
    cfg.pdu_loss = 0.0;
    cfg.ota_jitter = 0.0;
    let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(seed));
    let mut packets = Vec::new();
    for (i, s) in sizes.iter().enumerate() {
        let p = pkt(i as u64 + 1, *s);
        packets.push((SimTime::from_micros(i as u64), p.clone()));
        ch.enqueue(p, SimTime::ZERO);
    }
    let mut qx = Qxdm::new(
        QxdmConfig {
            ul_record_loss: record_loss,
            dl_record_loss: record_loss,
            log_pdus: true,
        },
        DetRng::seed_from_u64(seed ^ 0xFF),
    );
    let mut now = SimTime::ZERO;
    for _ in 0..5_000_000 {
        ch.poll(now, true, 2e6);
        let mut pdus = Vec::new();
        ch.take_pdu_events(now, &mut pdus);
        for (at, ev) in pdus {
            qx.observe_pdu(at, &ev);
        }
        ch.take_status_events(now, &mut Vec::new());
        ch.take_exits(now, &mut Vec::new());
        match ch.next_wake(true) {
            Some(w) if w > now => now = w,
            Some(_) => continue,
            None => break,
        }
    }
    (packets, qx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With a complete QxDM log, the long-jump mapping maps every packet
    /// and every chain matches ground truth exactly — on both the 3G
    /// fixed-payload (concatenating) and flexible segmenters.
    #[test]
    fn complete_log_maps_perfectly(
        sizes in prop::collection::vec(0u32..1400, 1..60),
        fixed in any::<bool>(),
    ) {
        let (packets, qx) = capture_log(&sizes, fixed, 0.0, 11);
        let refs: Vec<(SimTime, &IpPacket)> =
            packets.iter().map(|(at, p)| (*at, p)).collect();
        let index = PduIndex::new(&qx.log, Direction::Uplink);
        let mapped = long_jump_map(&refs, &index, MapperOptions::default());
        let score = score_mapping(&mapped, &TruthCovers::new(&qx.truth, Direction::Uplink));
        prop_assert_eq!(score.total, sizes.len());
        prop_assert!((score.mapped_ratio - 1.0).abs() < 1e-12, "{:?}", score);
        prop_assert!((score.correct_ratio - 1.0).abs() < 1e-12, "{:?}", score);
    }

    /// Under record loss, whatever the mapper does map is overwhelmingly
    /// correct (no systematic desynchronization), and the mapped ratio
    /// degrades gracefully rather than collapsing.
    #[test]
    fn lossy_log_never_desynchronizes(
        sizes in prop::collection::vec(0u32..1400, 20..80),
        loss_pct in 1u32..8,
        fixed in any::<bool>(),
    ) {
        let loss = loss_pct as f64 / 100.0;
        let (packets, qx) = capture_log(&sizes, fixed, loss, 13);
        let refs: Vec<(SimTime, &IpPacket)> =
            packets.iter().map(|(at, p)| (*at, p)).collect();
        let index = PduIndex::new(&qx.log, Direction::Uplink);
        let mapped = long_jump_map(&refs, &index, MapperOptions::default());
        let score = score_mapping(&mapped, &TruthCovers::new(&qx.truth, Direction::Uplink));
        // Graceful degradation: losing p% of records may unmap several
        // packets per lost record (gap absorption is conservative), but
        // must never collapse to zero coverage.
        prop_assert!(score.mapped_ratio > 0.10, "{:?}", score);
        if score.mapped_ratio > 0.0 {
            // The property that matters: mapped chains are (almost) never
            // wrong — no systematic off-by-one cascades.
            prop_assert!(score.correct_ratio > 0.9, "{:?}", score);
        }
    }

    /// Calibration: calibrated latency is monotone in the raw latency and
    /// never exceeds it.
    #[test]
    fn calibration_is_monotone_and_conservative(
        raw_ms in prop::collection::vec(1u64..10_000, 2..50),
        parse_ms in 1u64..60,
        trigger in any::<bool>(),
    ) {
        let kind = if trigger { StartKind::Trigger } else { StartKind::Parse };
        let mut calibrated: Vec<SimDuration> = Vec::new();
        let mut sorted_raw = raw_ms.clone();
        sorted_raw.sort_unstable();
        for r in &sorted_raw {
            let rec = BehaviorRecord {
                action: "x".into(),
                start: SimTime::from_secs(1),
                end: SimTime::from_secs(1) + SimDuration::from_millis(*r),
                start_kind: kind,
                mean_parse: SimDuration::from_millis(parse_ms),
                timed_out: false,
            };
            prop_assert!(rec.calibrated() <= rec.raw());
            calibrated.push(rec.calibrated());
        }
        prop_assert!(calibrated.windows(2).all(|w| w[0] <= w[1]));
    }
}
