//! Ticking a server or an app before its wake is a no-op.
//!
//! The world's wake calendar ticks a server only at its own wake or when a
//! packet reaches its host, and an app only at its own wake, when packets
//! reach the phone, or when a UI event is injected — unless the app says it
//! follows every step. Each test runs a twin that also gets extra ticks at
//! instants when the component is not due, checks each extra tick directly
//! (nothing sent, same wakes), and requires the same transcript at the end.

use device::apps::{
    BrowserApp, BrowserConfig, FacebookApp, FacebookConfig, FacebookPoster, FbVersion,
    PosterConfig, VideoSpec, YouTubeApp, YouTubeConfig, FACEBOOK_API_HOST, FACEBOOK_POST_HOST,
    FACEBOOK_PUSH_HOST, YOUTUBE_API_HOST, YOUTUBE_VIDEO_HOST,
};
use device::{
    proto, App, FacebookOrigin, Internet, NetAttachment, Phone, RpcServer, ServerApp, UiEvent,
    ViewSignature, World,
};
use netstack::dns::DNS_PORT;
use netstack::{Direction, Host, IpAddr, IpPacket, SocketAddr};
use radio::bearer::{BearerConfig, CellBearer};
use simcore::{advance, DetRng, SimDuration, SimTime};

fn resolver() -> SocketAddr {
    SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
}

/// One origin and two clients exchanging requests, subscriptions and posts
/// over a 15 ms wire. With `extra`, the server is also ticked at instants
/// when it is not due. Returns the packet transcript.
fn server_run(app: Box<dyn ServerApp>, extra: Option<u64>) -> Vec<(SimTime, IpPacket)> {
    let origin = IpAddr::new(31, 13, 0, 9);
    let mut net = Internet::new(resolver(), DetRng::seed_from_u64(3));
    net.add_server("origin.example", origin, app);
    let mut clients: Vec<Host> = (1..=2)
        .map(|k| Host::new(IpAddr::new(10, 0, 0, k), resolver()))
        .collect();
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut wire: Vec<(SimTime, IpPacket)> = Vec::new();
    let mut transcript = Vec::new();
    let mut socks = [Vec::new(), Vec::new()];
    let mut server_due = true;
    let mut now = SimTime::ZERO;
    let mut extra_ticks = 0;
    while now <= SimTime::from_secs(40) {
        if let Some(rng) = rng.as_mut() {
            let wake = net.node_wake(0);
            if !server_due && wake.is_none_or(|w| w > now) && rng.chance(0.7) {
                net.tick_node(0, now);
                extra_ticks += 1;
                let mut out = Vec::new();
                net.take_node_egress(0, &mut out);
                assert!(out.is_empty(), "early server tick at {now} sent {out:?}");
                assert_eq!(net.node_wake(0), wake, "early server tick moved its wake");
            }
        }
        wire.sort_by_key(|(at, _)| *at);
        while wire.first().is_some_and(|(at, _)| *at <= now) {
            let (_, p) = wire.remove(0);
            if p.dst.ip == origin || p.dst == resolver() {
                if net.route(p, now) != device::Routed::Dropped {
                    server_due = true;
                }
            } else if let Some(c) = clients.iter_mut().find(|c| c.ip == p.dst.ip) {
                c.on_packet(&p, now);
            }
        }
        // Client 1 subscribes at 1 s; client 0 sends a request every 3 s.
        let ms = now.as_millis();
        for (k, client) in clients.iter_mut().enumerate() {
            let Some(ip) = client.resolve("origin.example", now) else {
                continue;
            };
            let due = if k == 0 { ms / 3_000 + 1 } else { 1 };
            if socks[k].len() < due as usize && (k == 0 || ms >= 1_000) && socks[k].len() < 8 {
                let port = if k == 0 { 443 } else { 8883 };
                let s = client.connect(SocketAddr::new(ip, port));
                let tag = socks[k].len() as u16 + 1;
                let marker = if k == 0 {
                    proto::req(tag, 20_000)
                } else {
                    proto::subscribe(tag)
                };
                client.sock_mut(s).send_marked(600, marker);
                socks[k].push(s);
            }
        }
        let mut out = Vec::new();
        if server_due || net.node_wake(0).is_some_and(|w| w <= now) {
            net.tick_node(0, now);
            server_due = false;
        }
        net.take_dns_egress(&mut out);
        net.take_node_egress(0, &mut out);
        for client in clients.iter_mut() {
            if client.next_wake().is_some_and(|w| w <= now) {
                client.poll(now);
            }
            while let Some(p) = client.pop_egress() {
                out.push(p);
            }
        }
        for p in out {
            transcript.push((now, p.clone()));
            wire.push((now + SimDuration::from_millis(15), p));
        }
        let next = [
            net.node_wake(0),
            clients[0].next_wake(),
            clients[1].next_wake(),
            wire.iter().map(|w| w.0).min(),
            Some(now + SimDuration::from_millis(250)),
        ]
        .into_iter()
        .flatten()
        .filter(|t| *t > now)
        .min();
        now = next.expect("heartbeat pending");
    }
    if extra.is_some() {
        assert!(extra_ticks > 50, "only {extra_ticks} early server ticks");
    }
    transcript
}

#[test]
fn server_tick_before_wake_is_a_noop() {
    let apps: [fn() -> Box<dyn ServerApp>; 3] = [
        || Box::new(RpcServer::new(&[443, 8883])),
        || Box::new(RpcServer::new(&[443, 8883]).with_delay(SimDuration::from_millis(120))),
        || Box::new(FacebookOrigin::new(2_500, SimDuration::from_millis(300))),
    ];
    for make in apps {
        let plain = server_run(make(), None);
        assert!(
            plain.len() > 100,
            "the workload exchanged {} packets",
            plain.len()
        );
        for seed in 0..3 {
            assert!(
                server_run(make(), Some(seed)) == plain,
                "early server ticks changed the transcript"
            );
        }
    }
}

fn world_with(app: Box<dyn App>, cell: bool, seed: u64) -> World {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut internet = Internet::new(resolver(), rng.fork(1));
    for (name, ip) in [
        (FACEBOOK_API_HOST, IpAddr::new(31, 13, 64, 1)),
        (YOUTUBE_API_HOST, IpAddr::new(74, 125, 0, 1)),
        (YOUTUBE_VIDEO_HOST, IpAddr::new(74, 125, 0, 2)),
        ("www.example.com", IpAddr::new(93, 184, 216, 34)),
    ] {
        let server = RpcServer::new(&[80, 443]).with_delay(SimDuration::from_millis(40));
        internet.add_server(name, ip, Box::new(server));
    }
    // The write origin relays every acknowledged post, device A's included,
    // down the push channel.
    let origin_ip = IpAddr::new(31, 13, 64, 2);
    let origin = FacebookOrigin::new(5_000, SimDuration::from_millis(300));
    internet.add_server(FACEBOOK_POST_HOST, origin_ip, Box::new(origin));
    internet.add_alias(FACEBOOK_PUSH_HOST, origin_ip);
    let net = if cell {
        NetAttachment::Cell(Box::new(CellBearer::new(BearerConfig::umts_3g(), &mut rng)))
    } else {
        NetAttachment::wifi(&mut rng)
    };
    let phone = Phone::new(IpAddr::new(10, 0, 0, 2), resolver(), net, app, rng.fork(2));
    let mut world = World::new(phone, internet);
    // Device A posts at 12 s, 22 s, 32 s and 42 s.
    let poster = FacebookPoster::new(PosterConfig::every(SimDuration::from_secs(10)));
    let peer = Phone::new(
        IpAddr::new(10, 50, 0, 3),
        resolver(),
        NetAttachment::wifi(&mut rng),
        Box::new(poster),
        rng.fork(3),
    );
    world.add_peer(peer);
    world
}

/// Run an app through `events`, stopping at random checkpoints. With
/// `extra`, the app is also ticked at each checkpoint where it is neither
/// due nor a follower. Returns the phone's packet capture and screen log,
/// the number of early ticks, and the bytes pushed to the phone.
fn app_run(
    app: Box<dyn App>,
    cell: bool,
    events: &[(SimTime, UiEvent)],
    end: SimTime,
    extra: Option<u64>,
) -> (String, u32, u64) {
    let mut world = world_with(app, cell, 7);
    let mut checkpoints = DetRng::seed_from_u64(8);
    let mut rng = extra.map(DetRng::seed_from_u64);
    let mut now = SimTime::ZERO;
    let mut pending = events.iter().peekable();
    let mut extra_ticks = 0;
    while now < end {
        let step = SimDuration::from_micros(checkpoints.range_u64(1, 400_000));
        let mut next = (now + step).min(end);
        if let Some((at, _)) = pending.peek() {
            next = next.min(*at);
        }
        advance(&mut world, now, next);
        now = next;
        let phone = &mut world.phone;
        if let Some(rng) = rng.as_mut() {
            let app_wake = phone.app_wake();
            let not_due = app_wake.is_none_or(|w| w > now) && !phone.app_follows();
            if not_due && rng.chance(0.8) {
                let host_wake = phone.host_wake();
                let screen = phone.ui.camera.len();
                phone.tick_app(now);
                extra_ticks += 1;
                assert_eq!(phone.app_wake(), app_wake, "early app tick moved its wake");
                assert_eq!(phone.host_wake(), host_wake, "early app tick queued work");
                assert_eq!(phone.ui.camera.len(), screen, "early app tick drew");
            }
        }
        while pending.peek().is_some_and(|(at, _)| *at == now) {
            let (_, ev) = pending.next().expect("peeked");
            world.phone.inject_ui(ev, now);
            advance(&mut world, now, now);
        }
    }
    let phone = &mut world.phone;
    let trace = phone.capture.take_trace();
    let packets: Vec<_> = trace.iter().collect();
    let pushed = packets
        .iter()
        .filter(|(_, r)| r.dir == Direction::Downlink && r.pkt.src.port == 8883)
        .map(|(_, r)| r.pkt.payload_len as u64)
        .sum();
    let screens: Vec<_> = phone.ui.camera.iter().collect();
    (
        format!("{packets:?} {screens:?} {:?}", phone.cpu),
        extra_ticks,
        pushed,
    )
}

/// Check the twins on WiFi and on 3G; returns the bytes pushed to the
/// phone in each plain run.
fn check_app(
    make: impl Fn() -> Box<dyn App>,
    events: &[(SimTime, UiEvent)],
    end: SimTime,
) -> [u64; 2] {
    [false, true].map(|cell| {
        let (plain, _, pushed) = app_run(make(), cell, events, end, None);
        for seed in 0..2 {
            let (poked, ticks, _) = app_run(make(), cell, events, end, Some(seed));
            assert!(ticks > 20, "only {ticks} early app ticks");
            assert!(poked == plain, "early app ticks changed the session");
        }
        pushed
    })
}

fn at(ms: u64, ev: UiEvent) -> (SimTime, UiEvent) {
    (SimTime::from_millis(ms), ev)
}

#[test]
fn browser_tick_before_wake_is_a_noop() {
    let url = UiEvent::TypeText {
        target: ViewSignature::by_id("url_bar"),
        text: "http://www.example.com/".into(),
    };
    let events = [
        at(1_000, url.clone()),
        at(1_500, UiEvent::KeyEnter),
        at(20_000, UiEvent::KeyEnter),
    ];
    check_app(
        || Box::new(BrowserApp::new(BrowserConfig::chrome())),
        &events,
        SimTime::from_secs(45),
    );
}

#[test]
fn facebook_tick_before_wake_is_a_noop() {
    let post = |text: &str| UiEvent::TypeText {
        target: ViewSignature::by_id("composer"),
        text: text.into(),
    };
    let click = UiEvent::Click {
        target: ViewSignature::by_id("post_button"),
    };
    let scroll = UiEvent::Scroll {
        target: ViewSignature::by_id("news_feed"),
    };
    let events = [
        at(2_000, post("status: hello")),
        at(3_000, click.clone()),
        at(8_000, post("photos: beach")),
        at(9_000, click),
        at(20_000, scroll),
    ];
    for version in [FbVersion::WebView18, FbVersion::ListView50] {
        let pushed = check_app(
            || Box::new(FacebookApp::new(FacebookConfig::new(version))),
            &events,
            SimTime::from_secs(45),
        );
        // The phone's own two posts and device A's posts came back as
        // notifications.
        assert!(pushed.iter().all(|&b| b >= 5 * 5_000), "pushed {pushed:?}");
    }
}

#[test]
fn poster_tick_before_wake_is_a_noop() {
    check_app(
        || {
            Box::new(FacebookPoster::new(PosterConfig::every(
                SimDuration::from_secs(6),
            )))
        },
        &[],
        SimTime::from_secs(40),
    );
}

#[test]
fn youtube_follows_every_step() {
    // Each tick advances the request-tag counter and integrates playback
    // over the ticked instants: the world ticks it at every step rather
    // than at its own wakes only.
    let cfg = YouTubeConfig {
        videos: vec![VideoSpec {
            name: "clip".into(),
            duration: SimDuration::from_secs(20),
            bitrate_bps: 400e3,
        }],
        ..YouTubeConfig::default()
    };
    let app = YouTubeApp::new(cfg);
    assert!(app.follows_every_step());
    let mut world = world_with(Box::new(app), false, 3);
    advance(&mut world, SimTime::ZERO, SimTime::from_secs(1));
    assert!(world.phone.app_follows());
    // A crashed app runs nothing, so it follows nothing.
    world
        .phone
        .schedule_crash(SimTime::from_secs(2), SimDuration::from_secs(2));
    advance(&mut world, SimTime::from_secs(1), SimTime::from_secs(2));
    assert_eq!(world.phone.relaunch_at(), Some(SimTime::from_secs(4)));
    assert!(!world.phone.app_follows());
    advance(&mut world, SimTime::from_secs(2), SimTime::from_secs(5));
    assert_eq!(world.phone.relaunch_at(), None);
    assert!(world.phone.app_follows());
}
