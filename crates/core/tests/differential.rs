//! Differential properties: the indexed cross-layer analyzers must be
//! *byte-identical* to the naive reference implementations retained in
//! `analyze::crosslayer::reference`. The optimization changed the scan
//! strategy (position indexes + `partition_point` instead of linear
//! rescans); these properties pin the observable behaviour to the original
//! across arbitrary traffic mixes, record loss, and mapper options — and
//! across every window and configuration that shares one session-wide
//! [`PduIndex`] or [`TruthCovers`], the way the experiments use them.

use netstack::pcap::Direction;
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

use qoe_doctor::analyze::crosslayer::{
    long_jump_map, net_latency_breakdown, reference, score_mapping, MappedPacket, MapperOptions,
    MappingScore, PduIndex, TruthCovers,
};
use radio::qxdm::{PduRecord, Qxdm, QxdmConfig};
use radio::rlc::{PduEvent, RlcChannel, RlcConfig};
use simcore::{DetRng, RecordLog, SimDuration, SimTime};

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
    let mut packets = Vec::new();
    let mut queued = Vec::new();
    for (i, s) in sizes.iter().enumerate() {
        let p = pkt(i as u64 + 1, *s);
        packets.push((SimTime::from_micros(i as u64), p.clone()));
        queued.push((SimTime::ZERO, p));
    }
    let (qx, end) = run_channel(queued, fixed, record_loss, seed);
    (packets, qx, end)
}

/// Feed each packet to an RLC channel at its enqueue time and log what the
/// channel transmits; returns the log and the time the channel drained.
fn run_channel(
    queued: Vec<(SimTime, IpPacket)>,
    fixed: bool,
    record_loss: f64,
    seed: u64,
) -> (Qxdm, SimTime) {
    let mut cfg = if fixed {
        RlcConfig::umts_uplink()
    } else {
        RlcConfig::umts_downlink()
    };
    cfg.pdu_loss = 0.0;
    cfg.ota_jitter = 0.0;
    let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(seed));
    let mut queued = queued.into_iter().peekable();
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
        while let Some((_, p)) = queued.next_if(|(at, _)| *at <= now) {
            ch.enqueue(p, now);
        }
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
        let arrival = queued.peek().map(|(at, _)| *at);
        match (ch.next_wake(true), arrival) {
            (Some(w), _) if w <= now => continue,
            (Some(w), Some(a)) => now = w.min(a),
            (Some(w), None) => now = w,
            (None, Some(a)) => now = a,
            (None, None) => break,
        }
    }
    (qx, now)
}

/// Gap between the starts of consecutive bursts in [`capture_bursts`]: far
/// longer than any burst takes to drain.
const BURST_EVERY: SimDuration = SimDuration::from_secs(10);

/// One session of several uplink bursts (one per QoE window), burst `k`
/// captured and enqueued from `k * BURST_EVERY` on. Returns the packets of
/// each burst and the session's log.
fn capture_bursts(
    bursts: &[Vec<u32>],
    fixed: bool,
    record_loss: f64,
    seed: u64,
) -> (Vec<Vec<(SimTime, IpPacket)>>, Qxdm) {
    let mut windows = Vec::new();
    let mut id = 0;
    for (k, sizes) in bursts.iter().enumerate() {
        let start = SimTime::ZERO + BURST_EVERY * k as u64;
        let window: Vec<(SimTime, IpPacket)> = sizes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                id += 1;
                (start + SimDuration::from_micros(i as u64), pkt(id, *s))
            })
            .collect();
        windows.push(window);
    }
    let queued = windows.iter().flatten().cloned().collect();
    let (qx, _) = run_channel(queued, fixed, record_loss, seed);
    (windows, qx)
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
        let index = PduIndex::new(&qx.log, Direction::Uplink);
        let fast = long_jump_map(&refs, &index, opts);
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
        let index = PduIndex::new(&qx.log, Direction::Uplink);
        let mapped = long_jump_map(&refs, &index, MapperOptions::default());
        let net = SimDuration::from_millis(500);
        for (start, stop) in [
            (SimTime::ZERO, end),
            (SimTime::ZERO, SimTime::ZERO),
            (SimTime::from_millis(5), end),
        ] {
            let fast = net_latency_breakdown(start, stop, net, &mapped, &index);
            let naive = reference::net_latency_breakdown(
                start, stop, net, &mapped, &qx.log, Direction::Uplink);
            prop_assert_eq!(fast, naive);
        }
    }

    /// One index serves a whole session: every window mapped through it,
    /// under every combination of the two resync mechanisms, equals the
    /// reference run on the raw log, and every window's breakdown with the
    /// index's OTA estimate equals the reference breakdown.
    #[test]
    fn shared_index_serves_every_window_and_config(
        bursts in prop::collection::vec(prop::collection::vec(0u32..1400, 1..40), 1..5),
        loss_pct in 0u32..6,
        fixed in any::<bool>(),
        scan_sel in 0usize..3,
    ) {
        let scan_window = [4usize, 256, 1 << 20][scan_sel];
        let loss = loss_pct as f64 / 100.0;
        let (windows, qx) = capture_bursts(&bursts, fixed, loss, 23);
        let dir = Direction::Uplink;
        let index = PduIndex::new(&qx.log, dir);
        let net = SimDuration::from_millis(700);
        for (k, window) in windows.iter().enumerate() {
            let refs: Vec<(SimTime, &IpPacket)> =
                window.iter().map(|(at, p)| (*at, p)).collect();
            let start = SimTime::ZERO + BURST_EVERY * k as u64;
            let stop = start + BURST_EVERY - SimDuration::from_micros(1);
            for (gap_credit, bridge_rescue) in
                [(true, true), (false, true), (true, false), (false, false)]
            {
                let opts = MapperOptions { gap_credit, bridge_rescue, scan_window };
                let fast = long_jump_map(&refs, &index, opts);
                let naive = reference::long_jump_map_with(&refs, &qx.log, dir, opts);
                prop_assert_eq!(&fast, &naive);
                prop_assert_eq!(
                    net_latency_breakdown(start, stop, net, &fast, &index),
                    reference::net_latency_breakdown(start, stop, net, &naive, &qx.log, dir)
                );
            }
        }
    }
}

/// The set-based scorer `score_mapping` replaced: packet id → the set of
/// sns covering it, compared as sets with each mapped chain.
fn score_oracle(
    mapped: &[MappedPacket],
    truth: &RecordLog<PduEvent>,
    dir: Direction,
) -> MappingScore {
    let mut by_packet: HashMap<u64, BTreeSet<u32>> = HashMap::new();
    for (_, ev) in truth.iter().filter(|(_, ev)| ev.pdu.dir == dir) {
        for (pkt_id, _) in ev.coverage() {
            by_packet.entry(pkt_id).or_default().insert(ev.pdu.sn);
        }
    }
    let total = mapped.len();
    let hits: Vec<bool> = mapped
        .iter()
        .filter(|m| m.mapped())
        .map(|m| by_packet.get(&m.packet_id) == Some(&m.sns.iter().copied().collect()))
        .collect();
    let correct = hits.iter().filter(|h| **h).count();
    MappingScore {
        total,
        mapped_ratio: if total == 0 {
            0.0
        } else {
            hits.len() as f64 / total as f64
        },
        correct_ratio: if hits.is_empty() {
            0.0
        } else {
            correct as f64 / hits.len() as f64
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `score_mapping` equals the set-based oracle on truth logs with
    /// retransmitted sns (the same sn logged again), PDUs that cover two
    /// packets, both directions interleaved, and mapped chains that are
    /// exact, reordered, duplicated, perturbed or empty.
    #[test]
    fn score_mapping_equals_set_oracle(
        events in prop::collection::vec(
            (any::<bool>(), 0u32..12, 0u8..3, (0u64..10, 0u64..10), any::<bool>()),
            0..40,
        ),
        chains in prop::collection::vec((0u64..12, 0u8..4, 0u32..12), 0..16),
        uplink in any::<bool>(),
    ) {
        let mut truth = RecordLog::new();
        for (i, (up, sn, covers_len, (a, b), retx)) in events.into_iter().enumerate() {
            truth.push(SimTime::from_micros(i as u64), PduEvent {
                pdu: PduRecord {
                    dir: if up { Direction::Uplink } else { Direction::Downlink },
                    sn,
                    payload_len: 40,
                    first2: [0x45, 0],
                    li: None,
                    poll: false,
                    retransmission: retx,
                },
                covers: [(a, 7), (b, 9)],
                covers_len,
            });
        }
        let dir = if uplink { Direction::Uplink } else { Direction::Downlink };
        let mapped: Vec<MappedPacket> = chains
            .into_iter()
            .map(|(packet_id, kind, extra)| {
                // The true chain of `packet_id`, in time order (duplicates
                // from retransmissions kept), then shaped by `kind`.
                let mut sns: Vec<u32> = truth
                    .iter()
                    .filter(|(_, ev)| ev.pdu.dir == dir && ev.coverage().any(|(p, _)| p == packet_id))
                    .map(|(_, ev)| ev.pdu.sn)
                    .collect();
                match kind {
                    0 => {}
                    1 => sns.reverse(),
                    2 => sns.push(extra),
                    _ => sns.clear(),
                }
                MappedPacket {
                    packet_id,
                    captured_at: SimTime::ZERO,
                    sns,
                    first_pdu_at: None,
                    last_pdu_at: None,
                }
            })
            .collect();
        // One set of covers scores every mapping of the direction: the
        // whole list and both halves.
        let covers = TruthCovers::new(&truth, dir);
        let half = mapped.len() / 2;
        for part in [&mapped[..], &mapped[..half], &mapped[half..]] {
            let got = score_mapping(part, &covers);
            let want = score_oracle(part, &truth, dir);
            prop_assert_eq!(
                (got.total, got.mapped_ratio.to_bits(), got.correct_ratio.to_bits()),
                (want.total, want.mapped_ratio.to_bits(), want.correct_ratio.to_bits())
            );
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
        let index = PduIndex::new(&qx.log, Direction::Uplink);
        let a = long_jump_map(&refs, &index, opts);
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
