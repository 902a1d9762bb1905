//! Carrier throttling vs video QoE (the §7.5 scenario at example scale).
//!
//! Watches the same video over an unthrottled LTE bearer and over a
//! post-data-cap *policed* bearer, and prints the initial loading time and
//! rebuffering ratio the controller measures from the player's progress bar.
//!
//! Run with: `cargo run --release --example youtube_throttling`

use device::apps::VideoSpec;
use qoe_doctor::{replay, Controller};
use repro::scenario::{youtube_world, NetKind};
use simcore::SimDuration;

fn watch(net: NetKind) {
    let video = VideoSpec {
        name: "demo".into(),
        duration: SimDuration::from_secs(60),
        bitrate_bps: 500e3,
    };
    let world = youtube_world(vec![video], None, net, 7, true);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(5));

    // Search populates the results list.
    replay::search_videos(&mut doctor);
    doctor.advance(SimDuration::from_secs(5));

    // Click the result; the progress bar's disappearance ends the initial
    // loading window.
    let loading = replay::load_video(&mut doctor, "demo", SimDuration::from_secs(300));
    // Watch to the end, recording every stall.
    let report = replay::monitor_playback(&mut doctor, "video", SimDuration::from_secs(600));

    println!(
        "{:<22} initial loading {:>7}   rebuffering ratio {:>5.2}   stalls {} (finished: {})",
        net.label(),
        format!("{}", loading.calibrated()),
        report.rebuffering_ratio(),
        report.stalls,
        report.finished,
    );
}

fn main() {
    println!("Watching a 60 s, 500 kb/s video:");
    watch(NetKind::Lte);
    watch(NetKind::LteThrottled(128e3));
    watch(NetKind::Umts3g);
    watch(NetKind::Umts3gThrottled(128e3));
}
