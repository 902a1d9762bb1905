//! Differential properties: the indexed cross-layer analyzers must be
//! *byte-identical* to the naive reference implementations retained in
//! `analyze::crosslayer::reference`. The optimization changed the scan
//! strategy (position indexes + `partition_point` instead of linear
//! rescans); these properties pin the observable behaviour to the original
//! across arbitrary traffic mixes, record loss, and mapper options.

use netstack::pcap::Direction;
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader};
use proptest::prelude::*;
use qoe_doctor::analyze::crosslayer::{
    long_jump_map_with, net_latency_breakdown, reference, MapperOptions,
};
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

/// Run a packet mix through an RLC channel into a QxDM log, keeping PDU,
/// STATUS, and RRC-visible records (the breakdown needs the STATUS stream).
fn capture_log(
    sizes: &[u32],
    fixed: bool,
    record_loss: f64,
    seed: u64,
) -> (Vec<(SimTime, IpPacket)>, Qxdm, SimTime) {
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
    (packets, qx, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The indexed mapper equals the naive linear-scan reference on every
    /// packet — including under record loss, with each resync mechanism
    /// toggled, and with scan windows small enough to truncate mid-scan.
    #[test]
    fn indexed_mapper_equals_reference(
        sizes in prop::collection::vec(0u32..1400, 1..80),
        loss_pct in 0u32..8,
        fixed in any::<bool>(),
        gap_credit in any::<bool>(),
        bridge_rescue in any::<bool>(),
        scan_sel in 0usize..4,
    ) {
        let scan_window = [1usize, 4, 64, 256][scan_sel];
        let loss = loss_pct as f64 / 100.0;
        let (packets, qx, _) = capture_log(&sizes, fixed, loss, 21);
        let refs: Vec<(SimTime, &IpPacket)> =
            packets.iter().map(|(at, p)| (*at, p)).collect();
        let opts = MapperOptions { gap_credit, bridge_rescue, scan_window };
        let fast = long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts);
        let naive = reference::long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts);
        prop_assert_eq!(fast, naive);
    }

    /// The TimeIndex-based latency attribution equals the rescan reference
    /// component for component.
    #[test]
    fn indexed_breakdown_equals_reference(
        sizes in prop::collection::vec(0u32..1400, 1..60),
        loss_pct in 0u32..5,
        fixed in any::<bool>(),
    ) {
        let loss = loss_pct as f64 / 100.0;
        let (packets, qx, end) = capture_log(&sizes, fixed, loss, 22);
        let refs: Vec<(SimTime, &IpPacket)> =
            packets.iter().map(|(at, p)| (*at, p)).collect();
        let mapped =
            long_jump_map_with(&refs, &qx.log, Direction::Uplink, MapperOptions::default());
        let net = SimDuration::from_millis(500);
        for (start, stop) in [
            (SimTime::ZERO, end),
            (SimTime::ZERO, SimTime::ZERO),
            (SimTime::from_millis(5), end),
        ] {
            let fast = net_latency_breakdown(
                start, stop, net, &mapped, &qx.log, Direction::Uplink);
            let naive = reference::net_latency_breakdown(
                start, stop, net, &mapped, &qx.log, Direction::Uplink);
            prop_assert_eq!(fast, naive);
        }
    }
}

/// Ad-hoc profiling harness (not part of the test suite): `cargo test
/// --release -p qoe-doctor --test differential profile_mapper -- --ignored
/// --nocapture`.
#[test]
#[ignore]
fn profile_mapper() {
    let sizes: Vec<u32> = (0..10_000u32).map(|i| 200 + ((i * 37) % 1200)).collect();
    let (packets, qx, _) = capture_log(&sizes, true, 0.02, 21);
    let refs: Vec<(SimTime, &IpPacket)> = packets.iter().map(|(at, p)| (*at, p)).collect();
    let opts = MapperOptions::default();
    for _ in 0..3 {
        let t0 = std::time::Instant::now();
        let a = long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts);
        let t1 = std::time::Instant::now();
        let b = reference::long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts);
        let t2 = std::time::Instant::now();
        assert_eq!(a, b);
        let mapped = a.iter().filter(|m| m.mapped()).count();
        println!(
            "indexed {:?}  reference {:?}  mapped {}/{}",
            t1 - t0,
            t2 - t1,
            mapped,
            a.len()
        );
    }
}

#[test]
#[ignore]
fn profile_density() {
    let sizes: Vec<u32> = (0..10_000u32).map(|i| 200 + ((i * 37) % 1200)).collect();
    let (packets, qx, _) = capture_log(&sizes, true, 0.02, 21);
    let total = qx.log.pdus.iter().count();
    let heads = qx
        .log
        .pdus
        .iter()
        .filter(|(_, r)| r.first2 == [0x45, 6])
        .count();
    let bridges = qx
        .log
        .pdus
        .iter()
        .filter(|(_, r)| r.li.is_some_and(|li| li < r.payload_len))
        .count();
    println!("pdu records {total}  head-key {heads}  bridge {bridges}");
    // Time the wire_bytes generation alone — the shared per-packet cost.
    let t0 = std::time::Instant::now();
    let mut n = 0usize;
    for (_, p) in &packets {
        n += p.wire_bytes().len();
    }
    println!("wire_bytes for 10k packets: {:?} ({n} bytes)", t0.elapsed());
}
