//! Microbenchmarks of the simulation substrate's hot paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use netstack::pcap::{read_trace, write_trace, Direction, PacketRecord};
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader, TcpSocket};
use qoe_doctor::analyze::crosslayer::{
    long_jump_map, net_latency_breakdown, reference, MapperOptions, PduIndex,
};
use qoe_doctor::replay;
use qoe_doctor::{Calendar, Collection, Controller, WaitCondition};
use radio::bearer::{BearerConfig, CellBearer};
use radio::codec::{read_pdu_truth, read_qxdm, write_pdu_truth, write_qxdm};
use radio::qxdm::{PduRecord, Qxdm, QxdmConfig, QxdmLog, StatusRecord};
use radio::rlc::{PduCoverage, PduEvent, RlcChannel, RlcConfig};
use repro::exp72::{PostKind, PHOTO_READS};
use repro::exp75::WATCH_READS;
use repro::scenario::{video_dataset, youtube_world};
use repro::NetKind;
use simcore::{DetRng, EventQueue, RecordLog, SimDuration, SimTime, WakeCalendar};

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
    // Monotone pushes, the shape of pipe arrivals and RLC PDU completions:
    // every event stays in the in-order run.
    g.throughput(Throughput::Elements(100_000));
    g.bench_function("event_queue_in_order", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut sum = 0u64;
            for i in 0..100_000u64 {
                q.push(SimTime::from_micros(i / 3), i);
                if i % 4 == 3 {
                    while let Some((_, v)) = q.pop_due(SimTime::from_micros(i / 3)) {
                        sum = sum.wrapping_add(v);
                    }
                }
            }
            while let Some((_, v)) = q.pop_due(SimTime::MAX) {
                sum = sum.wrapping_add(v);
            }
            sum
        })
    });
    g.throughput(Throughput::Elements(10_000));
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

/// One world step's calendar work, 1,000 times: re-register one
/// component's wake, then read the head.
fn bench_wake_calendar(c: &mut Criterion) {
    let mut g = c.benchmark_group("simcore");
    g.throughput(Throughput::Elements(1_000));
    for slots in [8usize, 16] {
        let mut cal = WakeCalendar::new(slots);
        for id in 0..slots {
            cal.set(id, Some(SimTime::from_millis(id as u64)));
        }
        let mut now = 0u64;
        g.bench_function(&format!("wake_calendar_step_{slots}"), |b| {
            b.iter(|| {
                let mut heads = 0u64;
                for i in 0..1_000u64 {
                    now += 1;
                    let wake = SimTime::from_micros(now + (i * 7919) % 5_000);
                    cal.set(i as usize % slots, Some(wake));
                    heads = heads.wrapping_add(cal.next().map_or(0, |t| t.as_micros()));
                }
                heads
            })
        });
    }
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

/// A 100-packet uplink burst through a 3G bearer from an idle radio,
/// drained the way a world drives it when nothing else is due: the
/// bearer's private runs, stopping where a packet crosses into the core.
fn bench_bearer_uplink_burst(c: &mut Criterion) {
    let mut g = c.benchmark_group("radio");
    g.throughput(Throughput::Elements(100));
    g.bench_function("bearer_3g_uplink_burst", |b| {
        let until = SimTime::from_secs(30);
        b.iter(|| {
            let mut rng = DetRng::seed_from_u64(1);
            let mut bearer = CellBearer::new(BearerConfig::umts_3g(), &mut rng);
            for i in 0..100 {
                bearer.send_uplink(bulk_packet(i, 1400), SimTime::ZERO);
            }
            let mut now = SimTime::ZERO;
            let mut crossed = Vec::new();
            loop {
                now = bearer.run(now, until);
                bearer.recv_for_internet(now, &mut crossed);
                match bearer.next_wake() {
                    Some(w) if w <= until => now = now.max(w),
                    _ => break,
                }
            }
            assert_eq!(crossed.len(), 100);
            now
        })
    });
    g.finish();
}

/// Run `n` packets through a 3G uplink RLC channel into a QxDM log with
/// `record_loss`, returning the capture and the end of simulated time.
fn mapping_fixture(n: u64, record_loss: f64) -> (Vec<(SimTime, IpPacket)>, Qxdm, SimTime) {
    let packets: Vec<(SimTime, IpPacket)> = (0..n)
        .map(|i| {
            let pkt = bulk_packet(i, 200 + ((i * 37) % 1200) as u32);
            (SimTime::from_micros(i), pkt)
        })
        .collect();
    let queued = packets.iter().map(|(_, p)| (SimTime::ZERO, p.clone()));
    let (qx, end) = run_uplink(queued, record_loss);
    (packets, qx, end)
}

/// Feed each packet to a 3G uplink RLC channel at its enqueue time and log
/// the transmissions with `record_loss`; returns the log and the time the
/// channel drained.
fn run_uplink(
    queued: impl IntoIterator<Item = (SimTime, IpPacket)>,
    record_loss: f64,
) -> (Qxdm, SimTime) {
    let mut cfg = RlcConfig::umts_uplink();
    cfg.pdu_loss = 0.0;
    cfg.ota_jitter = 0.0;
    let mut ch = RlcChannel::new(cfg, Direction::Uplink, DetRng::seed_from_u64(2));
    let mut queued = queued.into_iter().peekable();
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
        while let Some((_, p)) = queued.next_if(|(at, _)| *at <= now) {
            ch.enqueue(p, now);
        }
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

fn bench_long_jump_mapping(c: &mut Criterion) {
    // Prepare realistic logs once; benchmark only the analysis passes.
    let (packets, qx, _) = mapping_fixture(200, 0.001);
    let refs: Vec<(SimTime, &IpPacket)> = packets.iter().map(|(at, p)| (*at, p)).collect();

    let mut g = c.benchmark_group("analyzer");
    g.throughput(Throughput::Elements(refs.len() as u64));
    let opts = MapperOptions::default();
    g.bench_function("long_jump_map_200_packets", |b| {
        b.iter(|| long_jump_map(&refs, &PduIndex::new(&qx.log, Direction::Uplink), opts).len())
    });
    g.finish();

    // 10k-packet scale with 2% record loss: every lost record forces a
    // resync scan, which is where the indexed mapper pulls away from the
    // reference's linear walk of the scan window.
    let (packets, qx, end) = mapping_fixture(10_000, 0.02);
    let refs: Vec<(SimTime, &IpPacket)> = packets.iter().map(|(at, p)| (*at, p)).collect();
    let index = PduIndex::new(&qx.log, Direction::Uplink);

    let mut g = c.benchmark_group("analyzer_10k");
    g.sample_size(10);
    g.throughput(Throughput::Elements(refs.len() as u64));
    g.bench_function("long_jump_map_10k_indexed", |b| {
        b.iter(|| long_jump_map(&refs, &index, opts).len())
    });
    g.bench_function("long_jump_map_10k_reference", |b| {
        b.iter(|| reference::long_jump_map_with(&refs, &qx.log, Direction::Uplink, opts).len())
    });

    let mapped = long_jump_map(&refs, &index, opts);
    let net = SimDuration::from_millis(500);
    g.bench_function("net_latency_breakdown_10k_indexed", |b| {
        b.iter(|| net_latency_breakdown(SimTime::ZERO, end, net, &mapped, &index).ota)
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

/// Fig. 8's shape: one 3G photo session of 15 uplink bursts (one per QoE
/// window) logging about 180k PDU records, every window mapped and broken
/// down through one shared index — the index build included, as
/// `exp72::photo_net_breakdown` pays it once per session.
fn bench_fig8_windows(c: &mut Criterion) {
    const WINDOWS: u64 = 15;
    const PER_WINDOW: u64 = 600;
    const EVERY: SimDuration = SimDuration::from_secs(10);
    let mut windows: Vec<Vec<(SimTime, IpPacket)>> = Vec::new();
    for k in 0..WINDOWS {
        let start = SimTime::ZERO + EVERY * k;
        windows.push(
            (0..PER_WINDOW)
                .map(|i| {
                    let id = k * PER_WINDOW + i;
                    let at = start + SimDuration::from_micros(i);
                    (at, bulk_packet(id, 200 + ((id * 37) % 1200) as u32))
                })
                .collect(),
        );
    }
    let (qx, _) = run_uplink(windows.iter().flatten().cloned(), 0.001);
    let refs: Vec<Vec<(SimTime, &IpPacket)>> = windows
        .iter()
        .map(|w| w.iter().map(|(at, p)| (*at, p)).collect())
        .collect();
    let net = SimDuration::from_secs(3);

    let mut g = c.benchmark_group("analyzer_fig8");
    g.sample_size(10);
    g.throughput(Throughput::Elements(qx.log.pdus.len() as u64));
    g.bench_function("fig8_windows", |b| {
        b.iter(|| {
            let index = PduIndex::new(&qx.log, Direction::Uplink);
            let mut total = SimDuration::ZERO;
            for (k, refs) in refs.iter().enumerate() {
                let start = SimTime::ZERO + EVERY * k as u64;
                let mapped = long_jump_map(refs, &index, MapperOptions::default());
                total += net_latency_breakdown(start, start + EVERY, net, &mapped, &index).rlc_tx;
            }
            total
        })
    });
    g.finish();
}

/// The whole-session analyzers on one recorded 3G photo session shaped like
/// the Table 3 overhead job's (10 posts): the mapping score of both
/// directions, and the Fig. 8 per-post breakdown. Outside a campaign no
/// idle worker exists, so both run on the calling thread.
fn bench_photo_session(c: &mut Criterion) {
    let col = repro::exp72::run_posts(PostKind::Photos, NetKind::Umts3g, 10, 20140705 ^ 4);
    let mut g = c.benchmark_group("analyzer");
    g.sample_size(10);
    g.bench_function("overhead_from_3g_photos", |b| {
        b.iter(|| repro::exp71::overhead_from(&col).ul_mapping.mapped_ratio)
    });
    g.bench_function("photo_net_breakdown_3g_photos", |b| {
        b.iter(|| repro::exp72::photo_net_breakdown(&col, "3G").map(|f| f.total))
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

/// The controller's wait loop over the Fig. 17 results screen while
/// nothing changes: each iteration is a timed-out wait of about 1,000
/// parse passes (its timeout is 1,000 mean parse costs), so it measures
/// the per-pass cost of a long wait on a static tree.
fn bench_wait_unchanged(c: &mut Criterion) {
    let world = youtube_world(video_dataset(11), None, NetKind::Lte, 20140705, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(10));
    assert_eq!(doctor.world.phone.ui.root().count(), 267);
    let scroll = device::UiEvent::Scroll {
        target: device::ViewSignature::by_id("results"),
    };
    let never = WaitCondition::TextIs {
        id: "player_status".into(),
        value: "never".into(),
    };
    let probe = doctor.measure_after("probe", &scroll, &never, SimDuration::from_secs(1));
    let timeout = probe.mean_parse * 1_000;
    let mut g = c.benchmark_group("device");
    g.throughput(Throughput::Elements(1_000));
    g.bench_function("wait_unchanged_267", |b| {
        b.iter(|| {
            let record = doctor.measure_after("wait", &scroll, &never, timeout);
            assert!(record.timed_out);
            record.end
        })
    });
    g.finish();
}

/// A synthetic capture of `n` packets: four interleaved TCP flows, bulk
/// downlink segments with an uplink ACK every other packet.
fn synthetic_trace(n: u64) -> RecordLog<PacketRecord> {
    let mut trace = RecordLog::with_capacity(n as usize);
    for i in 0..n {
        let flow = (i % 4) as u16;
        let down = i % 2 == 0;
        let mut pkt = bulk_packet(i, if down { 1400 } else { 0 });
        pkt.src = addr(1, 40000 + flow);
        if down {
            core::mem::swap(&mut pkt.src, &mut pkt.dst);
        }
        let dir = if down {
            Direction::Downlink
        } else {
            Direction::Uplink
        };
        trace.push(SimTime::from_micros(i * 350), PacketRecord { dir, pkt });
    }
    trace
}

/// A synthetic 3G PDU stream of `n` records: 40-byte PDUs, one packet
/// boundary every 36 PDUs, a retransmission every 100, uplink and downlink
/// interleaved.
fn synthetic_pdus(n: u32) -> (QxdmLog, RecordLog<PduEvent>) {
    let mut log = QxdmLog::default();
    let mut truth = RecordLog::new();
    for i in 0..n {
        let dir = if i % 8 == 0 {
            Direction::Uplink
        } else {
            Direction::Downlink
        };
        let at = SimTime::from_micros(u64::from(i) * 80);
        let boundary = i % 36 == 35;
        let ev = PduEvent {
            pdu: PduRecord {
                dir,
                sn: i / 2,
                payload_len: 40,
                first2: [(i * 7) as u8, (i * 13) as u8],
                li: boundary.then_some(20),
                poll: i % 64 == 0,
                retransmission: i % 100 == 99,
            },
            covers: PduCoverage::new([(u64::from(i / 36), 0), (u64::from(i / 36) + 1, 0)]),
            covers_len: 1 + boundary as u8,
        };
        log.pdus.push(at, ev.pdu);
        if ev.pdu.poll {
            log.statuses.push(
                at,
                StatusRecord {
                    data_dir: dir,
                    acks_sn: ev.pdu.sn,
                },
            );
        }
        truth.push(at, ev);
    }
    (log, truth)
}

fn bench_bundle_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("bundle_codec");
    // Every bundle load verifies every entry file with this checksum.
    let mut rng = DetRng::seed_from_u64(1);
    let entry: Vec<u8> = (0..1 << 20).map(|_| rng.range_u64(0, 256) as u8).collect();
    g.throughput(Throughput::Bytes(entry.len() as u64));
    g.bench_function("entry_checksum_1mb", |b| {
        b.iter(|| trace::entry_checksum(&entry))
    });

    let trace = synthetic_trace(10_000);
    let bytes = write_trace(&trace);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("trace_encode_10k_packets", |b| {
        b.iter(|| write_trace(&trace).len())
    });
    g.bench_function("trace_decode_10k_packets", |b| {
        b.iter(|| read_trace(&bytes).unwrap().len())
    });

    let (qxdm, truth) = synthetic_pdus(100_000);
    let bytes = write_qxdm(&qxdm);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("qxdm_encode_100k_pdus", |b| {
        b.iter(|| write_qxdm(&qxdm).len())
    });
    g.bench_function("qxdm_decode_100k_pdus", |b| {
        b.iter(|| read_qxdm(&bytes).unwrap().pdus.len())
    });

    let bytes = write_pdu_truth(&truth);
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("truth_encode_100k_pdus", |b| {
        b.iter(|| write_pdu_truth(&truth).len())
    });
    g.bench_function("truth_decode_100k_pdus", |b| {
        b.iter(|| read_pdu_truth(&bytes).unwrap().len())
    });

    // Whole bundles: the save, and the lossless full load against the
    // declared-reads load of the analyzer that reads each one (Fig. 7/8
    // for the 3G photo posts, Fig. 17 for the LTE video session).
    let root = std::env::temp_dir().join(format!("qd-microbench-bundles-{}", std::process::id()));
    let mut sessions = harness::StagedCampaign::new("microbench");
    sessions.job(
        "photo_posts",
        1,
        0,
        || repro::exp72::run_posts(PostKind::Photos, NetKind::Umts3g, 2, 1),
        PHOTO_READS,
        |_: &Collection| (),
    );
    sessions.job(
        "video",
        1,
        1,
        || repro::exp75::watch_session::<Calendar>(NetKind::Lte, 1, 1),
        WATCH_READS,
        |_: &Collection| (),
    );
    let recorded = sessions.into_record_campaign(&root).run(1);
    for (job, reads) in recorded.jobs.iter().zip([PHOTO_READS, WATCH_READS]) {
        let dir = &job.outcome.ok().expect("session recorded").dir;
        g.throughput(Throughput::Bytes(dir_bytes(dir)));
        // Each save makes a fresh bundle directory, as a recorded job does.
        let (col, meta) = Collection::load(dir).unwrap();
        let saves = root.join(format!("{}-saves", job.label));
        let mut n = 0u64;
        g.bench_function(&format!("{}_save", job.label), |b| {
            b.iter(|| {
                n += 1;
                col.save(&saves.join(n.to_string()), &meta).unwrap()
            })
        });
        g.bench_function(&format!("{}_full_load", job.label), |b| {
            b.iter(|| Collection::load(dir).unwrap().0.end)
        });
        g.bench_function(&format!("{}_declared_reads_load", job.label), |b| {
            b.iter(|| Collection::load_reading(dir, &reads).unwrap().0.end)
        });
    }
    let _ = std::fs::remove_dir_all(&root);
    g.finish();
}

/// Total size of the files directly under `dir`.
fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum()
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_wake_calendar,
    bench_tcp_transfer,
    bench_rlc_segmentation,
    bench_bearer_uplink_burst,
    bench_long_jump_mapping,
    bench_fig8_windows,
    bench_photo_session,
    bench_ui_parse,
    bench_wait_unchanged,
    bench_bundle_codec
);
criterion_main!(benches);
