//! Ticking a radio component before its wake is a no-op.
//!
//! The wake calendar ticks the RRC machine and the bearer only when their
//! wake has come. The bearer's tick returns at once before its wake, so
//! neither queued data (which refreshes the RRC inactivity timer) nor a
//! drawn-down rate limiter (which rounds its bucket at each refill) makes
//! an early tick count. Each test runs a twin that also gets extra ticks at
//! instants before its wake and requires: nothing out, the same wake, and
//! the same logs at the end.

use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader};
use radio::bearer::{BearerConfig, CellBearer};
use radio::rrc::{Rrc3gConfig, RrcConfig, RrcLteConfig, RrcMachine};
use simcore::{DetRng, SimDuration, SimTime};

/// An instant in `[now, wake)`, or `now` when idle.
fn before_wake(rng: &mut DetRng, now: SimTime, wake: Option<SimTime>) -> Option<SimTime> {
    match wake {
        None => Some(now),
        Some(w) if w > now => {
            let span = (w - now).as_micros();
            Some(now + SimDuration::from_micros(rng.range_u64(0, span)))
        }
        Some(_) => None,
    }
}

fn pkt(id: u64, payload: u32, up: bool) -> IpPacket {
    let (phone, server) = (
        SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
        SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
    );
    let (src, dst) = if up { (phone, server) } else { (server, phone) };
    IpPacket {
        id,
        src,
        dst,
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

/// Random data activity on an RRC machine; with `extra`, the machine is
/// also ticked before its wake between activities.
fn rrc_run(cfg: RrcConfig, extra: Option<u64>) -> String {
    let mut m = RrcMachine::new(cfg);
    m.inject_promotion_failures(2, SimDuration::from_millis(700));
    let mut workload = DetRng::seed_from_u64(5);
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut now = SimTime::ZERO;
    let mut log = Vec::new();
    for _ in 0..400 {
        let next = now + SimDuration::from_millis(workload.range_u64(0, 9_000));
        // Run the machine's own wakes up to the next activity.
        while let Some(w) = m.next_wake().filter(|w| *w <= next) {
            now = now.max(w);
            m.tick(now);
            log.extend(m.take_transitions());
            if let Some(rng) = rng.as_mut() {
                let wake = m.next_wake();
                if let Some(t) = before_wake(rng, now, wake) {
                    let state = format!("{m:?}");
                    m.tick(t);
                    assert!(m.take_transitions().is_empty(), "early tick at {t}");
                    assert_eq!(m.next_wake(), wake);
                    assert_eq!(format!("{m:?}"), state, "early tick changed state");
                }
            }
        }
        now = next;
        m.tick(now);
        m.on_data(workload.range_u64(0, 3_000) as u32, now);
        log.extend(m.take_transitions());
    }
    format!("{log:?}")
}

#[test]
fn rrc_tick_before_wake_is_a_noop() {
    for cfg in [
        RrcConfig::Umts3g(Rrc3gConfig::default()),
        RrcConfig::Lte(RrcLteConfig::default()),
    ] {
        let plain = rrc_run(cfg.clone(), None);
        for seed in 0..4 {
            assert_eq!(rrc_run(cfg.clone(), Some(seed)), plain);
        }
    }
}

/// Bursty two-way traffic through a bearer; with `extra`, the bearer is
/// also ticked before its wake after each of its own ticks. Returns every
/// packet that crossed, with its instant, plus the QxDM log.
fn bearer_run(cfg: BearerConfig, storm: bool, extra: Option<u64>) -> String {
    let mut rng0 = DetRng::seed_from_u64(11);
    let mut b = CellBearer::new(cfg, &mut rng0);
    if storm {
        b.inject_rlc_storm(SimTime::from_secs(3), SimTime::from_secs(9), 0.3);
        b.inject_promotion_failures(1, SimDuration::from_millis(900));
    }
    let mut workload = DetRng::seed_from_u64(12);
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut crossed = Vec::new();
    let mut buf = Vec::new();
    let mut now = SimTime::ZERO;
    let mut id = 0u64;
    let mut extra_ticks = 0u32;
    for burst in 0..60 {
        let next = now + SimDuration::from_millis(workload.range_u64(0, 2_500));
        while let Some(w) = b.next_wake().filter(|w| *w <= next) {
            now = now.max(w);
            b.tick(now);
            b.recv_for_internet(now, &mut buf);
            b.recv_for_phone(now, &mut buf);
            crossed.extend(buf.drain(..).map(|p| (now, p.id)));
            if let Some(rng) = rng.as_mut() {
                let wake = b.next_wake();
                if let Some(t) = before_wake(rng, now, wake) {
                    b.tick(t);
                    extra_ticks += 1;
                    b.recv_for_internet(t, &mut buf);
                    b.recv_for_phone(t, &mut buf);
                    assert!(buf.is_empty(), "early tick at {t} moved packets");
                    assert_eq!(b.next_wake(), wake, "early tick moved the wake");
                }
            }
        }
        now = next;
        for _ in 0..workload.range_u64(1, 12) {
            id += 1;
            let size = workload.range_u64(40, 1_400) as u32;
            if burst % 3 == 0 {
                b.send_uplink(pkt(id, size, true), now);
            } else {
                b.send_downlink(pkt(id, size, false), now);
            }
        }
    }
    if extra.is_some() {
        assert!(extra_ticks > 20, "only {extra_ticks} early ticks exercised");
    }
    let (log, truth) = b.qxdm.take_logs();
    format!("{crossed:?} {log:?} {}", truth.len())
}

#[test]
fn bearer_tick_before_wake_is_a_noop() {
    for (cfg, storm) in [
        (BearerConfig::umts_3g(), false),
        (BearerConfig::umts_3g(), true),
        (BearerConfig::lte(), false),
        (BearerConfig::lte(), true),
        (BearerConfig::lte().with_throttle(256e3), false),
        (BearerConfig::umts_3g().with_throttle(256e3), false),
    ] {
        let plain = bearer_run(cfg.clone(), storm, None);
        for seed in 0..3 {
            assert!(
                bearer_run(cfg.clone(), storm, Some(seed)) == plain,
                "early ticks changed the bearer's output"
            );
        }
    }
}

/// Drive `b` through its own wakes up to `until`, recording every packet
/// that crossed; with `early`, tick it once at `early` on the way.
fn drain(b: &mut CellBearer, until: SimTime, early: Option<SimTime>) -> String {
    let mut crossed = Vec::new();
    let mut buf = Vec::new();
    let (mut early, mut last) = (early, SimTime::ZERO);
    while let Some(w) = b.next_wake().filter(|w| *w <= until) {
        if let Some(t) = early.take_if(|t| last <= *t && *t < w) {
            b.tick(t);
            b.recv_for_internet(t, &mut buf);
            b.recv_for_phone(t, &mut buf);
            assert!(buf.is_empty(), "early tick at {t} moved packets");
            assert_eq!(b.next_wake(), Some(w), "early tick at {t} moved the wake");
        }
        b.tick(w);
        b.recv_for_internet(w, &mut buf);
        b.recv_for_phone(w, &mut buf);
        crossed.extend(buf.drain(..).map(|p| (w, p.id)));
        last = w;
    }
    assert!(early.is_none(), "the early tick never ran");
    let (log, truth) = b.qxdm.take_logs();
    format!("{crossed:?} {log:?} {}", truth.len())
}

/// The two states in which the body of a bearer tick does work before the
/// wake: a 3G bearer with queued uplink (it refreshes the RRC inactivity
/// timer) and a policed LTE bearer whose bucket is drawn down (it refills
/// the bucket). One tick before the wake in either state leaves the wake,
/// the crossed packets and the QxDM log as an untouched twin's.
#[test]
fn early_tick_with_backlog_or_a_drawn_down_bucket_is_a_noop() {
    // Queued uplink waits about 2 s for promotion out of PCH.
    let queued = || {
        let mut b = CellBearer::new(BearerConfig::umts_3g(), &mut DetRng::seed_from_u64(1));
        b.send_uplink(pkt(1, 1_000, true), SimTime::ZERO);
        b.send_uplink(pkt(2, 1_400, true), SimTime::ZERO);
        b
    };
    // Two packets reach the 8 kB bucket at about 15 ms and leave it short
    // by 2.9 kB, which a 128 kb/s refill restores by about 200 ms; a third
    // reaches it at about 415 ms.
    let policed = || {
        let cfg = BearerConfig::lte().with_throttle(128e3);
        let mut b = CellBearer::new(cfg, &mut DetRng::seed_from_u64(2));
        for (id, ms) in [(1, 0), (2, 0), (3, 400)] {
            b.send_downlink(pkt(id, 1_400, false), SimTime::from_millis(ms));
        }
        b
    };
    let until = SimTime::from_secs(30);
    let cases: [(&dyn Fn() -> CellBearer, &[u64]); 2] =
        [(&queued, &[1, 900]), (&policed, &[30, 100, 150, 430])];
    for (make, instants) in cases {
        let plain = drain(&mut make(), until, None);
        for &ms in instants {
            let early = Some(SimTime::from_millis(ms));
            assert!(
                drain(&mut make(), until, early) == plain,
                "an early tick at {ms} ms changed the bearer's output"
            );
        }
    }
}
