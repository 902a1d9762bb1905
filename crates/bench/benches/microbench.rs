//! Microbenchmarks of the simulation substrate's hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netstack::pcap::Direction;
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader, TcpSocket};
use qoe_doctor::analyze::crosslayer::{
    long_jump_map, long_jump_map_with, net_latency_breakdown, reference, MapperOptions,
};
use radio::qxdm::{Qxdm, QxdmConfig};
use radio::rlc::{RlcChannel, RlcConfig};
use simcore::{DetRng, EventQueue, SimDuration, SimTime};

fn addr(last: u8, port: u16) -> SocketAddr {
    SocketAddr::new(IpAddr::new(10, 0, 0, last), port)
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore");
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros((i * 7919) % 100_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop_due(SimTime::MAX) {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    // Same-instant churn: many events land on few deadlines — the shape a
    // busy link pipe produces. Drains via the batch pop.
    g.bench_function("event_queue_same_time_churn_10k", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.push(SimTime::from_micros(i % 16), i);
            }
            let mut sum = 0u64;
            for t in 0..16u64 {
                scratch.clear();
                q.pop_due_batch(SimTime::from_micros(t), &mut scratch);
                for (_, v) in scratch.drain(..) {
                    sum = sum.wrapping_add(v);
                }
            }
            sum
        })
    });
    g.finish();
}

fn bench_tcp_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("netstack");
    g.throughput(Throughput::Bytes(1_000_000));
    g.bench_function("tcp_transfer_1mb_lossless", |b| {
        b.iter(|| {
            let mut client = TcpSocket::connect(addr(1, 40000), addr(2, 80));
            let mut server = TcpSocket::accept_from_syn(addr(2, 80), addr(1, 40000));
            client.send(1_000_000);
            let mut id = 0u64;
            let now = SimTime::ZERO;
            loop {
                let mut next_id = || {
                    id += 1;
                    id
                };
                let mut a = Vec::new();
                client.poll(now, &mut next_id, &mut a);
                let mut b2 = Vec::new();
                server.poll(now, &mut next_id, &mut b2);
                if a.is_empty() && b2.is_empty() {
                    break;
                }
                for p in a {
                    server.on_packet(&p, now);
                }
                for p in b2 {
                    client.on_packet(&p, now);
                }
            }
            server.total_received()
        })
    });
    g.finish();
}

fn bulk_packet(id: u64, len: u32) -> IpPacket {
    IpPacket {
        id,
        src: addr(1, 40000),
        dst: addr(2, 443),
        proto: Proto::Tcp,
        tcp: Some(TcpHeader {
            seq: 1 + id * len as u64,
            ack: 0,
            flags: TcpFlags {
                ack: true,
                ..Default::default()
            },
        }),
        payload_len: len,
        udp_payload: None,
        markers: Vec::new(),
    }
}

fn bench_rlc_segmentation(c: &mut Criterion) {
    let mut g = c.benchmark_group("radio");
    g.throughput(Throughput::Bytes(100 * 1440));
    g.bench_function("rlc_3g_uplink_segment_100_packets", |b| {
        b.iter(|| {
            let mut cfg = RlcConfig::umts_uplink();
            cfg.pdu_loss = 0.0;
            let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(1));
            for i in 0..100 {
                ch.enqueue(bulk_packet(i, 1400), SimTime::ZERO);
            }
            let mut now = SimTime::ZERO;
            let mut n = 0usize;
            loop {
                ch.poll(now, true, 1.6e6);
                let mut pdus = Vec::new();
                ch.take_pdu_events(now, &mut pdus);
                n += pdus.len();
                ch.take_status_events(now, &mut Vec::new());
                ch.take_exits(now, &mut Vec::new());
                match ch.next_wake(true) {
                    Some(w) if w > now => now = w,
                    Some(_) => continue,
                    None => break,
                }
            }
            n
        })
    });
    g.finish();
}

/// Run `n` packets through a 3G uplink RLC channel into a QxDM log with
/// `record_loss`, returning the capture and the end of simulated time.
fn mapping_fixture(n: u64, record_loss: f64) -> (Vec<(SimTime, IpPacket)>, Qxdm, SimTime) {
    let mut cfg = RlcConfig::umts_uplink();
    cfg.pdu_loss = 0.0;
    cfg.ota_jitter = 0.0;
    let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(2));
    let mut packets = Vec::new();
    for i in 0..n {
        let pkt = bulk_packet(i, 200 + ((i * 37) % 1200) as u32);
        packets.push((SimTime::from_micros(i), pkt.clone()));
        ch.enqueue(pkt, SimTime::ZERO);
    }
    let mut qx = Qxdm::new(
        QxdmConfig {
            ul_record_loss: record_loss,
            dl_record_loss: 0.0,
            log_pdus: true,
        },
        DetRng::seed_from_u64(3),
    );
    let mut now = SimTime::ZERO;
    loop {
        ch.poll(now, true, 1.6e6);
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

fn bench_long_jump_mapping(c: &mut Criterion) {
    // Prepare realistic logs once; benchmark only the analysis passes.
    let (packets, qx, _) = mapping_fixture(200, 0.001);
    let refs: Vec<(SimTime, &IpPacket)> = packets.iter().map(|(at, p)| (*at, p)).collect();

    let mut g = c.benchmark_group("analyzer");
    g.throughput(Throughput::Elements(refs.len() as u64));
    g.bench_function("long_jump_map_200_packets", |b| {
        b.iter(|| long_jump_map(&refs, &qx.log, Direction::Uplink).len())
    });
    g.finish();

    // 10k-packet scale with 2% record loss: every lost record forces a
    // resync scan, which is where the indexed mapper pulls away from the
    // reference's linear walk of the scan window.
    let (packets, qx, end) = mapping_fixture(10_000, 0.02);
    let refs: Vec<(SimTime, &IpPacket)> = packets.iter().map(|(at, p)| (*at, p)).collect();
    let opts = MapperOptions::default();

    let mut g = c.benchmark_group("analyzer_10k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(refs.len() as u64));
    g.bench_function("long_jump_map_10k_indexed", |b| {
        b.iter(|| long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts).len())
    });
    g.bench_function("long_jump_map_10k_reference", |b| {
        b.iter(|| reference::long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts).len())
    });

    let mapped = long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts);
    let net = SimDuration::from_millis(500);
    g.bench_function("net_latency_breakdown_10k_indexed", |b| {
        b.iter(|| {
            net_latency_breakdown(SimTime::ZERO, end, net, &mapped, &qx.log, Direction::Uplink).ota
        })
    });
    g.bench_function("net_latency_breakdown_10k_reference", |b| {
        b.iter(|| {
            reference::net_latency_breakdown(
                SimTime::ZERO,
                end,
                net,
                &mapped,
                &qx.log,
                Direction::Uplink,
            )
            .ota
        })
    });
    g.finish();
}

/// A results screen shaped like the Fig. 17 one: 260 result rows under a
/// five-view player layout, 267 views in all.
fn results_screen() -> device::ui::View {
    use device::ui::View;
    let mut results = View::new("android.widget.ListView", "results");
    for i in 0..260 {
        results
            .children_mut()
            .push(View::new("TextView", &format!("result_v{i}")).with_text("video"));
    }
    View::new("FrameLayout", "root").with_child(
        View::new("LinearLayout", "yt_root")
            .with_child(View::new("android.widget.EditText", "search_box"))
            .with_child(results)
            .with_child(View::new("TextView", "player_status").with_text("idle"))
            .with_child(View::new("android.widget.Button", "skip_ad").with_visible(false))
            .with_child(View::new("android.widget.ProgressBar", "player_progress")),
    )
}

/// UI observation shares unchanged storage and pays on write instead: the
/// first two measure what a parse pass costs the host, the third what a
/// mutation costs while the controller still holds a snapshot.
fn bench_ui_parse(c: &mut Criterion) {
    use device::ui::{UiTree, View};
    let mut feed = View::new("android.widget.ListView", "news_feed");
    for i in 0..100 {
        feed.children_mut()
            .push(View::new("TextView", &format!("item{i}")).with_text("hello"));
    }
    let root = View::new("LinearLayout", "root").with_child(feed);
    let ui = UiTree::new(root, DetRng::seed_from_u64(4));
    let mut g = c.benchmark_group("device");
    g.bench_function("ui_snapshot_100_items", |b| {
        b.iter(|| ui.snapshot().count())
    });

    let screen = results_screen();
    assert_eq!(screen.count(), 267);
    let mut ui = UiTree::new(screen, DetRng::seed_from_u64(5));
    let now = SimTime::from_secs(1);
    g.throughput(Throughput::Elements(10_000));
    g.bench_function("ui_observe_267_unchanged", |b| {
        b.iter(|| {
            let mut views = 0;
            for _ in 0..10_000 {
                let (snapshot, _) = ui.observe(now);
                views += ui.observed_views(now) + snapshot.children.len();
            }
            views
        })
    });
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("ui_mutate_with_snapshot_held", |b| {
        b.iter(|| {
            for i in 0..1_000 {
                let (held, _) = ui.observe(now);
                ui.set_text(
                    now,
                    "player_status",
                    if i % 2 == 0 { "playing" } else { "idle" },
                );
                drop(held);
            }
            ui.observed_views(now)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_tcp_transfer,
    bench_rlc_segmentation,
    bench_long_jump_mapping,
    bench_ui_parse
);
criterion_main!(benches);
