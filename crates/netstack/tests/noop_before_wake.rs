//! Ticking a component before its wake is a no-op.
//!
//! The wake calendar ticks a component only when its registered wake has
//! come (or a handoff made it due). That is sound only if a tick at any
//! earlier instant would have done nothing: no egress, no state change, no
//! random draw, and the same wake afterwards. Each test runs a component
//! through a randomized workload next to an identical twin that also gets
//! extra ticks at instants before its wake, checks each extra tick directly
//! (nothing out, same wake, same state where the state is printable), and
//! requires both twins to produce the same transcript. One test shows the
//! converse: early refills of an unsettled rate limiter are not no-ops.

use netstack::dns::{DnsServer, DNS_PORT};
use netstack::{
    Host, IpAddr, IpPacket, LinkConfig, Pipe, RateLimiter, ShaperConfig, SocketAddr, TcpSocket,
};
use proptest::prelude::*;
use simcore::{DetRng, SimDuration, SimTime};

fn addr(last: u8, port: u16) -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, 0, 0, last), port)
}

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

/// What the host does for a socket when it is due.
fn service(s: &mut TcpSocket, now: SimTime, ids: &mut u64, out: &mut Vec<IpPacket>) {
    s.on_timer(now);
    let mut next_id = || {
        *ids += 1;
        *ids
    };
    if let Some(p) = s.take_retransmit(now, &mut next_id) {
        out.push(p);
    }
    s.poll(now, &mut next_id, out);
}

/// A client/server transfer over a wire that drops every `drop_one_in`th
/// packet. With `extra`, each socket is also serviced at an instant before
/// its wake on every round. Returns the full packet transcript.
fn tcp_transfer(bytes: u64, drop_one_in: u64, extra: Option<u64>) -> Vec<(SimTime, IpPacket)> {
    let mut c = TcpSocket::connect(addr(1, 40000), addr(2, 80));
    let mut s = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
    c.send(bytes);
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut ids = 0u64;
    let mut sent = 0u64;
    let mut transcript = Vec::new();
    let mut wire: Vec<(SimTime, bool, IpPacket)> = Vec::new();
    let mut now = SimTime::ZERO;
    let mut closed = false;
    for _ in 0..200_000 {
        if let Some(rng) = rng.as_mut() {
            for sock in [&mut c, &mut s] {
                let wake = sock.next_wake();
                if let Some(t) = before_wake(rng, now, wake) {
                    let state = format!("{sock:?}");
                    let mut out = Vec::new();
                    service(sock, t, &mut ids, &mut out);
                    assert!(out.is_empty(), "early tick at {t} sent {out:?}");
                    assert_eq!(sock.next_wake(), wake, "early tick moved the wake");
                    assert_eq!(format!("{sock:?}"), state, "early tick changed state");
                }
            }
        }
        // Deliver what has arrived.
        wire.sort_by_key(|(at, _, _)| *at);
        while wire.first().is_some_and(|(at, _, _)| *at <= now) {
            let (_, to_server, p) = wire.remove(0);
            if to_server {
                s.on_packet(&p, now);
            } else {
                c.on_packet(&p, now);
            }
        }
        if !closed && c.all_acked() && s.total_received() == bytes {
            c.close();
            s.close();
            closed = true;
        }
        for (to_server, sock) in [(true, &mut c), (false, &mut s)] {
            if sock.next_wake().is_some_and(|w| w <= now) {
                let mut out = Vec::new();
                service(sock, now, &mut ids, &mut out);
                for p in out {
                    sent += 1;
                    transcript.push((now, p.clone()));
                    if drop_one_in == 0 || !sent.is_multiple_of(drop_one_in) {
                        wire.push((now + SimDuration::from_millis(10), to_server, p));
                    }
                }
            }
        }
        let next = [c.next_wake(), s.next_wake(), wire.iter().map(|w| w.0).min()]
            .into_iter()
            .flatten()
            .min();
        match next {
            Some(t) if t > now => now = t,
            Some(_) => {}
            None => break,
        }
    }
    assert!(
        c.is_closed() && s.is_closed(),
        "transfer finished and closed"
    );
    transcript
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tcp_socket_tick_before_wake_is_a_noop(
        bytes in 1u64..150_000,
        drop_one_in in 0u64..40,
        seed in 0u64..1_000,
    ) {
        // Below 5, run lossless: dropping every 1st-4th packet starves TCP.
        let drop_one_in = if drop_one_in < 5 { 0 } else { drop_one_in };
        let plain = tcp_transfer(bytes, drop_one_in, None);
        let poked = tcp_transfer(bytes, drop_one_in, Some(seed));
        prop_assert_eq!(plain.len(), poked.len());
        prop_assert!(plain == poked, "early ticks changed the transcript");
    }
}

/// Two hosts exchanging several connections (one resolved through DNS),
/// over a wire dropping every `drop_one_in`th packet; both sides close, and
/// the run lasts past TIME_WAIT so closed sockets are reaped. With `extra`,
/// each host is also polled before its wake on every round.
fn host_exchange(drop_one_in: u64, extra: Option<u64>) -> Vec<(SimTime, IpPacket)> {
    let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
    let mut dns = DnsServer::new(resolver);
    let server_ip = IpAddr::new(31, 13, 0, 2);
    dns.register("origin.example", server_ip);
    let mut client = Host::new(IpAddr::new(10, 0, 0, 1), resolver);
    let mut server = Host::new(server_ip, resolver);
    server.listen(443);
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut conns = Vec::new();
    let mut accepted = Vec::new();
    let mut transcript = Vec::new();
    let mut wire: Vec<(SimTime, IpPacket)> = Vec::new();
    let mut sent = 0u64;
    let mut dns_ids = 1u64 << 40;
    let mut now = SimTime::ZERO;
    let end = SimTime::from_secs(75);
    while now <= end {
        if let Some(rng) = rng.as_mut() {
            for host in [&mut client, &mut server] {
                let wake = host.next_wake();
                if let Some(t) = before_wake(rng, now, wake) {
                    host.poll(t);
                    assert!(!host.has_egress(), "early poll at {t} sent packets");
                    assert_eq!(host.next_wake(), wake, "early poll moved the wake");
                }
            }
        }
        wire.sort_by_key(|(at, _)| *at);
        while wire.first().is_some_and(|(at, _)| *at <= now) {
            let (_, p) = wire.remove(0);
            if p.dst == resolver {
                let mut next_id = || {
                    dns_ids += 1;
                    dns_ids
                };
                if let Some(answer) = dns.handle(&p, &mut next_id) {
                    wire.push((now + SimDuration::from_millis(5), answer));
                }
            } else if p.dst.ip == server_ip {
                server.on_packet(&p, now);
            } else {
                client.on_packet(&p, now);
            }
        }
        // The client opens a connection every 400 ms for 2 s; the server
        // answers each request and closes once the client has closed.
        let k = now.as_micros() / 400_000;
        if conns.len() < 5 && k as usize >= conns.len() {
            if let Some(ip) = client.resolve("origin.example", now) {
                let c = client.connect(SocketAddr::new(ip, 443));
                client.sock_mut(c).send(3_000 + 1_000 * conns.len() as u64);
                conns.push(c);
            }
        }
        while let Some(s) = server.accept(443) {
            accepted.push((s, false));
        }
        for (s, done) in accepted.iter_mut() {
            let Some(sock) = server.try_sock(*s) else {
                continue; // reaped
            };
            if !*done && sock.peer_closed() {
                server.sock_mut(*s).send(20_000);
                server.sock_mut(*s).close();
                *done = true;
            }
        }
        for &c in &conns {
            if client
                .try_sock(c)
                .is_some_and(|s| s.all_acked() && !s.is_closed())
            {
                client.sock_mut(c).close();
            }
        }
        for host in [&mut client, &mut server] {
            if host.next_wake().is_some_and(|w| w <= now) {
                host.poll(now);
            }
            while let Some(p) = host.pop_egress() {
                sent += 1;
                transcript.push((now, p.clone()));
                if drop_one_in == 0 || !sent.is_multiple_of(drop_one_in) {
                    wire.push((now + SimDuration::from_millis(20), p));
                }
            }
        }
        let next = [
            client.next_wake(),
            server.next_wake(),
            wire.iter().map(|w| w.0).min(),
            Some(now + SimDuration::from_millis(100)),
        ]
        .into_iter()
        .flatten()
        .filter(|t| *t > now)
        .min();
        now = next.expect("the 100 ms heartbeat is always pending");
    }
    assert_eq!(conns.len(), 5);
    // Reaping is lazy (it never schedules a wake of its own): any poll
    // after TIME_WAIT removes the closed sockets.
    for host in [&mut client, &mut server] {
        host.poll(now);
        assert!(!host.has_egress());
        assert_eq!(host.socket_count(), 0, "closed sockets were reaped");
        assert_eq!(host.sockets_opened(), 5);
    }
    transcript
}

#[test]
fn host_poll_before_wake_is_a_noop() {
    for drop_one_in in [0, 7, 13] {
        let plain = host_exchange(drop_one_in, None);
        for seed in 0..4 {
            let poked = host_exchange(drop_one_in, Some(seed));
            assert!(plain == poked, "early polls changed the transcript");
        }
    }
}

/// Random sends into a jittered, lossy pipe; with `extra`, deliveries are
/// also attempted before the pipe's wake.
fn pipe_run(extra: Option<u64>) -> (Vec<(SimTime, u64)>, u64) {
    let cfg = LinkConfig {
        bandwidth_bps: 2e6,
        latency: SimDuration::from_millis(30),
        jitter_frac: 0.3,
        loss: 0.05,
        queue_bytes: 64_000,
    };
    let mut pipe = Pipe::new(cfg, DetRng::seed_from_u64(3));
    let mut workload = DetRng::seed_from_u64(4);
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut out = Vec::new();
    let mut delivered = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..2_000u64 {
        now += SimDuration::from_micros(workload.range_u64(0, 4_000));
        if let Some(rng) = rng.as_mut() {
            let wake = pipe.next_wake();
            if let Some(t) = before_wake(rng, now, wake) {
                assert_eq!(pipe.deliver(t, &mut out), 0, "early delivery at {t}");
                assert_eq!(pipe.next_wake(), wake);
            }
        }
        if pipe.next_wake().is_some_and(|w| w <= now) {
            pipe.deliver(now, &mut out);
            delivered.extend(out.drain(..).map(|p| (now, p.id)));
        }
        let len = workload.range_u64(40, 1_500) as u32;
        pipe.send(
            IpPacket {
                id: i,
                src: addr(1, 1),
                dst: addr(2, 2),
                proto: netstack::Proto::Tcp,
                tcp: None,
                payload_len: len,
                udp_payload: None,
                markers: Vec::new(),
            },
            now,
        );
    }
    (delivered, pipe.stats.lost + pipe.stats.overflowed)
}

#[test]
fn pipe_delivery_before_wake_is_a_noop() {
    let plain = pipe_run(None);
    assert!(plain.1 > 0, "the workload exercises loss and overflow");
    for seed in 0..4 {
        assert!(
            pipe_run(Some(seed)) == plain,
            "early deliveries changed the pipe"
        );
    }
}

/// Which instants [`limiter_run`] runs an extra `take_ready` at.
#[derive(Clone, Copy)]
enum Early {
    /// None.
    Never,
    /// One before the wake of every round whose limiter is settled, drawn
    /// from this seed; each is checked to be a no-op.
    Settled(u64),
    /// One before the wake of every round whose limiter is unsettled,
    /// drawn from this seed.
    Unsettled(u64),
}

/// What a [`limiter_run`] produced.
#[derive(PartialEq)]
struct LimiterRun {
    /// `(instant, packet id)` of every packet that passed.
    passed: Vec<(SimTime, u64)>,
    /// Offered, passed and dropped counts.
    stats: String,
    /// Every early `take_ready` that moved the wake: `(instant, wake
    /// before, wake after)`.
    moved: Vec<(SimTime, Option<SimTime>, Option<SimTime>)>,
}

/// Whether `rl`'s bucket is full and nothing is queued: a refill at any
/// later instant then changes nothing the limiter will ever do (it only
/// moves the refill stamp of a bucket that stays full). Otherwise each
/// refill rounds the token count at the instant it runs.
fn settled(rl: &RateLimiter, cfg: &ShaperConfig) -> bool {
    let tokens: f64 = rl
        .debug_state()
        .strip_prefix("tokens=")
        .and_then(|s| s.split(' ').next())
        .and_then(|t| t.parse().ok())
        .expect("debug_state starts with the token count");
    rl.queued_bytes() == 0 && tokens >= cfg.bucket_bytes
}

/// Bursts through a limiter, with the `early` extra refills.
fn limiter_run(cfg: ShaperConfig, early: Early) -> LimiterRun {
    let mut rl = RateLimiter::new(cfg.clone());
    let mut workload = DetRng::seed_from_u64(9);
    let mut rng = match early {
        Early::Never => None,
        Early::Settled(seed) => Some((DetRng::seed_from_u64(seed), true)),
        Early::Unsettled(seed) => Some((DetRng::seed_from_u64(seed), false)),
    };
    let mut passed = Vec::new();
    let mut moved = Vec::new();
    let mut ready = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..3_000u64 {
        // Bursts separated by idle gaps long enough to refill the bucket.
        let gap = if i % 40 == 0 { 2_000_000 } else { 1_000 };
        let next = now + SimDuration::from_micros(workload.range_u64(0, gap));
        while let Some(w) = rl.next_wake().filter(|w| *w <= next) {
            now = now.max(w);
            rl.take_ready(now, &mut ready);
            passed.extend(ready.drain(..).map(|p| (now, p.id)));
        }
        now = next;
        if let Some((rng, want_settled)) = rng.as_mut() {
            let wake = rl.next_wake();
            if settled(&rl, &cfg) == *want_settled {
                if let Some(t) = before_wake(rng, now, wake) {
                    let tokens_before = rl.debug_state();
                    rl.take_ready(t, &mut ready);
                    if *want_settled {
                        assert!(ready.is_empty());
                        assert_eq!(rl.next_wake(), wake);
                        let strip = |s: &str| s.split(" last_refill").next().unwrap().to_string();
                        assert_eq!(strip(&rl.debug_state()), strip(&tokens_before));
                    } else if rl.next_wake() != wake {
                        moved.push((t, wake, rl.next_wake()));
                    }
                    passed.extend(ready.drain(..).map(|p| (t, p.id)));
                }
            }
        }
        let pkt = IpPacket {
            id: i,
            src: addr(1, 1),
            dst: addr(2, 2),
            proto: netstack::Proto::Tcp,
            tcp: None,
            payload_len: workload.range_u64(40, 1_400) as u32,
            udp_payload: None,
            markers: Vec::new(),
        };
        if let Some(p) = rl.offer(pkt, now) {
            passed.push((now, p.id));
        }
    }
    let stats = rl.stats;
    LimiterRun {
        passed,
        stats: format!("{} {} {}", stats.offered, stats.passed, stats.dropped),
        moved,
    }
}

#[test]
fn settled_limiter_refill_before_wake_is_a_noop() {
    for cfg in [ShaperConfig::shaping(256e3), ShaperConfig::policing(256e3)] {
        let plain = limiter_run(cfg.clone(), Early::Never);
        for seed in 0..4 {
            assert!(
                limiter_run(cfg.clone(), Early::Settled(seed)) == plain,
                "early refills of a settled limiter changed its output"
            );
        }
    }
}

/// Why a cellular bearer refills its limiters only at its own wakes (its
/// tick returns at once before its wake): a refill rounds the token count
/// at the instant it runs, so one extra `take_ready` before the wake of a
/// shaping limiter with a queue moves that wake, and with it the packets
/// that pass. A bearer whose limiters refilled whenever its owner happened
/// to tick it would then depend on how the owner steps. Golden outputs
/// cannot show this: they are the same either way.
#[test]
fn unsettled_limiter_refill_before_wake_moves_its_wake() {
    let cfg = ShaperConfig::shaping(256e3);
    let plain = limiter_run(cfg.clone(), Early::Never);
    let poked = limiter_run(cfg, Early::Unsettled(0));
    let us = SimTime::from_micros;
    assert_eq!(
        poked.moved.first(),
        Some(&(us(6_114_441), Some(us(6_143_406)), Some(us(6_143_405)))),
        "the first early refill of an unsettled limiter moved its wake 1 µs"
    );
    assert!(
        poked.passed != plain.passed,
        "early refills of an unsettled limiter left the passed packets unchanged"
    );
}
