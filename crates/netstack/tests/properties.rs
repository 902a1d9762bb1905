//! Property-based tests for the network stack: TCP delivery under loss,
//! marker semantics, and token-bucket conservation.

use netstack::{IpAddr, IpPacket, RateLimiter, ShaperConfig, SocketAddr, TcpSocket};
use proptest::prelude::*;
use simcore::{DetRng, SimDuration, SimTime};

fn addr(last: u8, port: u16) -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, 0, 0, last), port)
}

/// Drive two sockets over a lossy wire with timer service until quiescent.
/// `drop_one_in` drops every Nth packet (0 = lossless).
fn pump_lossy(a: &mut TcpSocket, b: &mut TcpSocket, drop_one_in: u64) -> bool {
    let mut id = 0u64;
    let mut dropped = 0u64;
    let mut now = SimTime::ZERO;
    for _round in 0..100_000 {
        let mut next_id = || {
            id += 1;
            id
        };
        let mut out = Vec::new();
        a.on_timer(now);
        b.on_timer(now);
        if let Some(p) = a.take_retransmit(now, &mut next_id) {
            out.push((true, p));
        }
        if let Some(p) = b.take_retransmit(now, &mut next_id) {
            out.push((false, p));
        }
        {
            let mut av = Vec::new();
            a.poll(now, &mut next_id, &mut av);
            out.extend(av.into_iter().map(|p| (true, p)));
            let mut bv = Vec::new();
            b.poll(now, &mut next_id, &mut bv);
            out.extend(bv.into_iter().map(|p| (false, p)));
        }
        if out.is_empty() {
            // Idle: advance time to the next retransmission deadline.
            let wake = [a.next_wake(), b.next_wake()]
                .into_iter()
                .flatten()
                .filter(|w| *w > now)
                .min();
            match wake {
                Some(w) => {
                    now = w;
                    continue;
                }
                None => return true, // fully quiescent
            }
        }
        for (from_a, p) in out {
            dropped += 1;
            if drop_one_in > 0 && dropped.is_multiple_of(drop_one_in) {
                continue; // lost
            }
            // 10 ms one-way delay keeps RTT sane for the estimator.
            let arrive = now + SimDuration::from_millis(10);
            if from_a {
                b.on_packet(&p, arrive);
            } else {
                a.on_packet(&p, arrive);
            }
        }
        now += SimDuration::from_millis(1);
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the transfer size, every byte arrives exactly once on a
    /// lossless wire.
    #[test]
    fn tcp_delivers_exact_byte_counts(bytes in 1u64..300_000) {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send(bytes);
        prop_assert!(pump_lossy(&mut c, &mut s, 0));
        prop_assert_eq!(s.total_received(), bytes);
        prop_assert!(c.all_acked());
        prop_assert_eq!(c.stats.retransmits, 0);
    }

    /// Under periodic loss, TCP still delivers everything (reliability).
    #[test]
    fn tcp_survives_periodic_loss(
        bytes in 1u64..120_000,
        drop_one_in in 4u64..40,
    ) {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        c.send(bytes);
        prop_assert!(pump_lossy(&mut c, &mut s, drop_one_in));
        prop_assert_eq!(s.total_received(), bytes);
        prop_assert!(c.all_acked());
    }

    /// Markers arrive exactly once, in stream order, even under loss.
    #[test]
    fn markers_are_exactly_once_in_order(
        chunks in prop::collection::vec(1u64..20_000, 1..10),
        drop_one_in in 0u64..20,
    ) {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        for (i, len) in chunks.iter().enumerate() {
            c.send_marked(*len, 1000 + i as u64);
        }
        let effective_drop = if drop_one_in < 4 { 0 } else { drop_one_in };
        prop_assert!(pump_lossy(&mut c, &mut s, effective_drop));
        let got = s.take_markers();
        let want: Vec<u64> = (0..chunks.len()).map(|i| 1000 + i as u64).collect();
        prop_assert_eq!(got, want);
        prop_assert!(s.take_markers().is_empty());
    }

    /// `has_markers` answers whether `take_markers` would return anything,
    /// whatever order the data segments arrive in.
    #[test]
    fn has_markers_matches_take_markers(
        chunks in prop::collection::vec(1u64..3_000, 1..8),
        keys in prop::collection::vec(any::<u64>(), 16..17),
        takes in prop::collection::vec(any::<bool>(), 16..17),
        in_order in any::<bool>(),
    ) {
        let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
        let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
        prop_assert!(pump_lossy(&mut c, &mut s, 0));
        for (i, len) in chunks.iter().enumerate() {
            c.send_marked(*len, 1000 + i as u64);
        }
        let mut id = 0u64;
        let mut segments = Vec::new();
        c.poll(SimTime::ZERO, &mut || { id += 1; id }, &mut segments);
        if !in_order {
            let mut keyed: Vec<(u64, IpPacket)> = keys.iter().copied().zip(segments).collect();
            keyed.sort_by_key(|(k, _)| *k);
            segments = keyed.into_iter().map(|(_, p)| p).collect();
        }
        let mut got = Vec::new();
        for (i, p) in segments.iter().enumerate() {
            s.on_packet(p, SimTime::from_millis(10));
            if takes[i % takes.len()] {
                let has = s.has_markers();
                let taken = s.take_markers();
                prop_assert_eq!(has, !taken.is_empty());
                prop_assert!(!s.has_markers());
                got.extend(taken);
            }
        }
        let has = s.has_markers();
        let taken = s.take_markers();
        prop_assert_eq!(has, !taken.is_empty());
        got.extend(taken);
        // Every marker whose data was sent arrives once, in stream order.
        prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
    }

    /// Token bucket conservation: bytes passed never exceed the bucket
    /// depth plus rate × elapsed time (for either discipline).
    #[test]
    fn token_bucket_never_over_admits(
        sizes in prop::collection::vec(1u32..1400, 1..200),
        gaps_ms in prop::collection::vec(0u64..50, 1..200),
        shaping in any::<bool>(),
    ) {
        let rate = 100_000.0; // 12.5 kB/s
        let cfg = if shaping {
            ShaperConfig::shaping(rate)
        } else {
            ShaperConfig::policing(rate)
        };
        let bucket = cfg.bucket_bytes;
        let mut rl = RateLimiter::new(cfg);
        let mut now = SimTime::ZERO;
        let mut passed_bytes = 0u64;
        let mut rng = DetRng::seed_from_u64(7);
        for (i, size) in sizes.iter().enumerate() {
            let gap = gaps_ms.get(i % gaps_ms.len()).copied().unwrap_or(1);
            now += SimDuration::from_millis(gap);
            let pkt = IpPacket {
                id: i as u64,
                src: addr(1, 1),
                dst: addr(2, 2),
                proto: netstack::Proto::Tcp,
                tcp: None,
                payload_len: *size,
                udp_payload: None,
                markers: Vec::new(),
            };
            if let Some(p) = rl.offer(pkt, now) {
                passed_bytes += p.wire_len() as u64;
            }
            let mut ready = Vec::new();
            rl.take_ready(now, &mut ready);
            for p in ready {
                passed_bytes += p.wire_len() as u64;
            }
            let _ = rng.f64();
        }
        // Drain the shaping queue completely.
        let drain_until = now + SimDuration::from_secs(3600);
        let mut ready = Vec::new();
        rl.take_ready(drain_until, &mut ready);
        for p in ready {
            passed_bytes += p.wire_len() as u64;
        }
        let elapsed = drain_until.as_secs_f64();
        let budget = bucket + elapsed * rate / 8.0;
        prop_assert!(
            (passed_bytes as f64) <= budget + 1.0,
            "passed {} budget {}",
            passed_bytes,
            budget
        );
    }

    /// Wire bytes always match the declared length, and the payload is a
    /// pure function of (flow, seq).
    #[test]
    fn wire_bytes_are_deterministic(seq in 0u64..1_000_000, len in 0u32..1400) {
        let pkt = IpPacket {
            id: 1,
            src: addr(1, 40000),
            dst: addr(2, 443),
            proto: netstack::Proto::Tcp,
            tcp: Some(netstack::TcpHeader {
                seq,
                ack: 0,
                flags: netstack::TcpFlags::default(),
            }),
            payload_len: len,
            udp_payload: None,
            markers: Vec::new(),
        };
        let mut pkt2 = pkt.clone();
        pkt2.id = 99; // different packet identity, same stream content
        let w1 = pkt.wire_bytes();
        let w2 = pkt2.wire_bytes();
        prop_assert_eq!(w1.len(), (40 + len) as usize);
        prop_assert_eq!(&w1[40..], &w2[40..]);
    }
}
