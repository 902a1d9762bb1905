//! Cross-crate integration tests: full scenarios driven end-to-end through
//! the controller, exercising the UI layer, TCP/IP stack, cellular radio,
//! carrier throttles, and every analyzer together.

use device::apps::{BrowserConfig, FbVersion, VideoSpec};
use device::{UiEvent, ViewSignature};
use netstack::pcap::Direction;
use netstack::IpPacket;
use qoe_doctor::analyze::crosslayer::{
    long_jump_map, rrc_transitions_in, score_mapping, window_breakdown, MapperOptions, PduIndex,
    TruthCovers,
};
use qoe_doctor::analyze::radio::{energy_breakdown, first_hop_ota_rtts, residencies};
use qoe_doctor::analyze::transport::TransportReport;
use qoe_doctor::replay::{self, PAGE_LOAD, PULL_TO_UPDATE, VIDEO_INITIAL_LOADING};
use qoe_doctor::Controller;
use radio::power::PowerModel;
use radio::rrc::RrcState;
use repro::scenario::{
    browser_world, facebook_world, youtube_world, NetKind, PAGE_URL, PUSH_BYTES,
};
use simcore::{SimDuration, SimTime};

// ---------------------------------------------------------------------
// Facebook flows
// ---------------------------------------------------------------------

#[test]
fn status_post_local_echo_on_lte() {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        None,
        PUSH_BYTES,
        NetKind::Lte,
        1,
        false,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(10));
    let rec = replay::upload_post(
        &mut doctor,
        "upload_post:status",
        "status: integration",
        SimDuration::from_secs(30),
    );
    assert!(!rec.timed_out);
    // Local echo: the post appears after device processing (~1 s), well
    // before the upload completes.
    let lat = rec.calibrated();
    assert!(lat > SimDuration::from_millis(400), "latency {lat}");
    assert!(lat < SimDuration::from_millis(2_000), "latency {lat}");
    // Let the async upload drain, then check the cross-layer verdict.
    doctor.advance(SimDuration::from_secs(20));
    let col = doctor.collect();
    let b = window_breakdown(&rec, &col.trace);
    // Local echo: the device, not the network, dominates the window. (The
    // server ack usually falls entirely outside the window; with jittered
    // server delays it occasionally sneaks in, but never as the dominant
    // component.)
    assert!(
        b.device_latency > b.network_latency,
        "device {} vs network {}",
        b.device_latency,
        b.network_latency
    );
    // The upload really happened: bytes flowed to the write origin.
    let report = TransportReport::analyze(&col.trace);
    let (ul, _) = report.volume_to("graph.facebook.com");
    assert!(ul > 2_000, "upload bytes {ul}");
}

#[test]
fn photo_post_network_on_critical_path_3g() {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        None,
        PUSH_BYTES,
        NetKind::Umts3g,
        2,
        false,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(30));
    let rec = replay::upload_post(
        &mut doctor,
        "upload_post:photos",
        "photos: trip",
        SimDuration::from_secs(120),
    );
    assert!(!rec.timed_out);
    let col = doctor.collect();
    let b = window_breakdown(&rec, &col.trace);
    assert!(
        !b.response_outside_window,
        "photo post waits for the server"
    );
    // Network dominates (Finding 2: >= 65% share in the paper).
    let net_share = b.network_latency.as_secs_f64() / b.user_latency.as_secs_f64();
    assert!(net_share > 0.5, "network share {net_share}");
    // The QoE window saw an RRC promotion out of PCH.
    let qxdm = col.qxdm.as_ref().unwrap();
    let transitions = rrc_transitions_in(qxdm, rec.start, rec.end);
    assert!(
        !transitions.is_empty(),
        "expected promotions inside the window"
    );
}

#[test]
fn webview_update_slower_and_heavier_than_listview() {
    let run = |version: FbVersion, seed: u64| {
        let world = facebook_world(
            version,
            None,
            version == FbVersion::ListView50,
            Some(SimDuration::from_secs(40)),
            2_400,
            NetKind::Lte,
            seed,
            false,
        );
        let mut doctor = Controller::new(world);
        doctor.advance(SimDuration::from_secs(5));
        if version == FbVersion::WebView18 {
            doctor.advance(SimDuration::from_secs(40));
            doctor.interact(&UiEvent::Scroll {
                target: ViewSignature::by_id("news_feed"),
            });
        }
        let rec = replay::pull_to_update(&mut doctor, SimDuration::from_secs(120))
            .expect("update observed");
        let col = doctor.collect();
        let mut dl = 0u64;
        for e in col.trace.window(rec.start, rec.end) {
            if e.record.dir == Direction::Downlink {
                dl += e.record.pkt.wire_len() as u64;
            }
        }
        (rec.calibrated(), dl)
    };
    let (lv_latency, lv_dl) = run(FbVersion::ListView50, 3);
    let (wv_latency, wv_dl) = run(FbVersion::WebView18, 4);
    assert!(
        wv_latency.as_secs_f64() > 2.0 * lv_latency.as_secs_f64(),
        "WV {wv_latency} vs LV {lv_latency}"
    );
    assert!(
        wv_dl as f64 > 3.0 * lv_dl as f64,
        "WV {wv_dl} B vs LV {lv_dl} B"
    );
}

#[test]
fn background_run_consumes_data_and_energy() {
    let world = facebook_world(
        FbVersion::ListView50,
        Some(SimDuration::from_mins(30)),
        false,
        Some(SimDuration::from_mins(20)),
        PUSH_BYTES,
        NetKind::Umts3g,
        5,
        true,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_hours(2));
    let col = doctor.collect();
    let report = TransportReport::analyze(&col.trace);
    let (ul, dl) = report.volume_to("facebook");
    assert!(dl > 50_000, "downlink {dl}");
    assert!(ul > 5_000, "uplink {ul}");
    let qxdm = col.qxdm.as_ref().unwrap();
    let res = residencies(qxdm, RrcState::Pch, SimTime::ZERO, col.end);
    let activity: Vec<SimTime> = col.trace.iter().map(|(at, _)| at).collect();
    let e = energy_breakdown(&res, &activity, &PowerModel::default());
    assert!(e.total_j() > 10.0, "energy {e:?}");
    assert!(
        e.tail_j > e.non_tail_j,
        "tail should dominate background energy: {e:?}"
    );
    // Most of the two hours is spent in PCH.
    let pch: SimDuration = res
        .iter()
        .filter(|r| r.state == RrcState::Pch)
        .map(|r| r.duration())
        .fold(SimDuration::ZERO, |a, b| a + b);
    assert!(pch > SimDuration::from_mins(90), "PCH time {pch}");
}

// ---------------------------------------------------------------------
// YouTube flows
// ---------------------------------------------------------------------

fn play_one(net: NetKind, seed: u64) -> (SimDuration, f64, bool) {
    let video = VideoSpec {
        name: "itest".into(),
        duration: SimDuration::from_secs(30),
        bitrate_bps: 400e3,
    };
    let world = youtube_world(vec![video], None, net, seed, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(5));
    let rec = replay::load_video(&mut doctor, "itest", SimDuration::from_secs(240));
    let report = replay::monitor_playback(&mut doctor, "video", SimDuration::from_secs(400));
    (
        rec.calibrated(),
        report.rebuffering_ratio(),
        report.finished,
    )
}

#[test]
fn unthrottled_video_plays_cleanly() {
    let (loading, rebuffer, finished) = play_one(NetKind::Lte, 6);
    assert!(finished);
    assert!(loading < SimDuration::from_secs(3), "loading {loading}");
    assert!(rebuffer < 0.01, "rebuffer {rebuffer}");
}

#[test]
fn throttled_video_stalls() {
    let (loading, rebuffer, _) = play_one(NetKind::Umts3gThrottled(128e3), 7);
    assert!(loading > SimDuration::from_secs(10), "loading {loading}");
    assert!(rebuffer > 0.3, "rebuffer {rebuffer}");
}

// ---------------------------------------------------------------------
// Browser + cross-layer mapping
// ---------------------------------------------------------------------

#[test]
fn page_load_and_long_jump_mapping_on_3g() {
    let world = browser_world(BrowserConfig::chrome(), NetKind::Umts3g, 8);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(2));
    doctor.interact(&replay::type_url(PAGE_URL));
    let rec = replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(60));
    assert!(!rec.timed_out);
    let col = doctor.collect();
    let qxdm = col.qxdm.as_ref().unwrap();
    let truth = col.pdu_truth.as_ref().unwrap();
    for dir in [Direction::Uplink, Direction::Downlink] {
        let pkts: Vec<(SimTime, &IpPacket)> = col
            .trace
            .iter()
            .filter(|(_, r)| r.dir == dir)
            .map(|(at, r)| (at, &r.pkt))
            .collect();
        assert!(!pkts.is_empty());
        let mapped = long_jump_map(&pkts, &PduIndex::new(qxdm, dir), MapperOptions::default());
        let score = score_mapping(&mapped, &TruthCovers::new(truth, dir));
        assert!(score.mapped_ratio > 0.7, "{dir:?} {score:?}");
        assert!(score.correct_ratio > 0.95, "{dir:?} {score:?}");
    }
    // First-hop OTA RTT estimates resemble the configured 60 ms.
    let rtts = first_hop_ota_rtts(qxdm, Direction::Uplink);
    assert!(!rtts.is_empty());
    let mean = rtts.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>() / rtts.len() as f64;
    // The nearest-poll heuristic tends to underestimate (the paper notes
    // the same): accept a broad band around the configured 60 ms.
    assert!(mean > 0.005 && mean < 0.25, "mean OTA {mean}");
}

#[test]
fn simplified_rrc_machine_loads_pages_faster() {
    let load = |net: NetKind| {
        let world = browser_world(BrowserConfig::chrome(), net, 9);
        let mut doctor = Controller::new(world);
        doctor.advance(SimDuration::from_secs(2));
        doctor.interact(&replay::type_url(PAGE_URL));
        let rec = replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(60));
        assert!(!rec.timed_out);
        rec.calibrated()
    };
    let default = load(NetKind::Umts3g);
    let simplified = load(NetKind::Umts3gSimplified);
    let lte = load(NetKind::Lte);
    assert!(
        simplified < default,
        "simplified {simplified} vs default {default}"
    );
    assert!(lte < simplified, "LTE {lte} vs simplified {simplified}");
}

// ---------------------------------------------------------------------
// One-call diagnosis
// ---------------------------------------------------------------------

#[test]
fn diagnose_explains_a_3g_photo_post() {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        None,
        PUSH_BYTES,
        NetKind::Umts3g,
        31,
        false,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(30));
    let rec = replay::upload_post(
        &mut doctor,
        "upload_post:photos",
        "photos: diag",
        SimDuration::from_secs(120),
    );
    assert!(!rec.timed_out);
    let col = doctor.collect();
    let d = qoe_doctor::Diagnoser::new(&col).diagnose(&rec);
    // The report identifies the network as the bottleneck, driven by RLC
    // transmission (Finding 2), names the write origin, and saw the
    // promotion out of PCH.
    assert!(d.verdict().contains("network-bound"), "{}", d.verdict());
    assert!(d.verdict().contains("RLC transmission"), "{}", d.verdict());
    assert!(
        d.flows
            .iter()
            .any(|f| f.server.contains("graph.facebook.com")),
        "flows: {:?}",
        d.flows.iter().map(|f| f.server.clone()).collect::<Vec<_>>()
    );
    assert!(!d.rrc_transitions.is_empty());
    assert!(d.radio_breakdown.is_some());
    assert!(d.speed_index.is_some());
    // The rendered report is non-trivial prose.
    let text = format!("{d}");
    assert!(text.contains("QoE diagnosis"));
    assert!(text.contains("verdict"));
}

#[test]
fn diagnose_explains_a_local_echo_status_post() {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        None,
        PUSH_BYTES,
        NetKind::Lte,
        32,
        false,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(10));
    let rec = replay::upload_post(
        &mut doctor,
        "upload_post:status",
        "status: diag",
        SimDuration::from_secs(60),
    );
    doctor.advance(SimDuration::from_secs(15));
    let col = doctor.collect();
    let d = qoe_doctor::Diagnoser::new(&col).diagnose(&rec);
    assert!(d.verdict().contains("device-bound"), "{}", d.verdict());
}

// ---------------------------------------------------------------------
// Table 1 behaviours
// ---------------------------------------------------------------------

/// The last record in the behaviour log.
fn last_logged(doctor: &Controller) -> qoe_doctor::BehaviorRecord {
    let (_, rec) = doctor.log.iter().last().expect("a logged record");
    rec.clone()
}

#[test]
fn table1_replay_specs_execute_end_to_end() {
    // Load a page on WiFi.
    let world = browser_world(BrowserConfig::chrome(), NetKind::Wifi, 21);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(1));
    doctor.interact(&replay::type_url(PAGE_URL));
    let rec = replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(90));
    assert_eq!(doctor.log.len(), 1);
    assert_eq!(last_logged(&doctor), rec);
    assert_eq!(rec.action, PAGE_LOAD);
    assert!(!rec.timed_out);

    // Upload a post on LTE.
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        None,
        PUSH_BYTES,
        NetKind::Lte,
        22,
        true,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    let rec = replay::upload_post(
        &mut doctor,
        "upload_post:status",
        "status: spec-driven",
        SimDuration::from_secs(120),
    );
    assert_eq!(doctor.log.len(), 1);
    assert_eq!(last_logged(&doctor), rec);
    assert!(!rec.timed_out);
    assert!(doctor
        .world
        .phone
        .ui
        .root()
        .any_text_contains("spec-driven"));

    // Pull-to-update: the v5.0 app refreshes its feed when a friend's
    // post is pushed.
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        true,
        Some(SimDuration::from_secs(40)),
        2_400,
        NetKind::Lte,
        24,
        true,
    );
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));
    let rec =
        replay::pull_to_update(&mut doctor, SimDuration::from_secs(120)).expect("update observed");
    assert_eq!(doctor.log.len(), 1);
    assert_eq!(last_logged(&doctor), rec);
    assert_eq!(rec.action, PULL_TO_UPDATE);
    assert!(!rec.timed_out);

    // Search the video list, load a video and watch it, logging the
    // initial loading.
    let video = VideoSpec {
        name: "spec".into(),
        duration: SimDuration::from_secs(15),
        bitrate_bps: 400e3,
    };
    let world = youtube_world(vec![video], None, NetKind::Wifi, 23, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(2));
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(5));
    let rec = replay::load_video(&mut doctor, "spec", SimDuration::from_secs(240));
    assert_eq!(last_logged(&doctor), rec);
    replay::monitor_playback(&mut doctor, "video", SimDuration::from_secs(120));
    assert!(
        !doctor.log.is_empty(),
        "at least the initial loading measured"
    );
    assert!(doctor
        .log
        .iter()
        .any(|(_, r)| r.action == VIDEO_INITIAL_LOADING && !r.timed_out));
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

#[test]
fn identical_seeds_reproduce_identical_measurements() {
    let run = || {
        let world = browser_world(BrowserConfig::firefox(), NetKind::Lte, 1234);
        let mut doctor = Controller::new(world);
        doctor.advance(SimDuration::from_secs(2));
        doctor.interact(&replay::type_url(PAGE_URL));
        let rec = replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(60));
        let col = doctor.collect();
        (rec.calibrated(), col.trace.len(), col.camera.len())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
