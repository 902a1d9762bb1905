//! Cross-layer root-cause analysis of a slow page load (§5.4 / §7.7).
//!
//! Loads a page over 3G from an idle radio, then uses the multi-layer
//! analyzer to show *why* it was slow: the RRC promotions inside the QoE
//! window, the responsible TCP flows, and the same load on the simplified
//! state machine for comparison.
//!
//! Run with: `cargo run --release --example browser_rrc`

use device::apps::BrowserConfig;
use qoe_doctor::analyze::radio::{first_hop_ota_rtts, residencies};
use qoe_doctor::{replay, Controller};
use repro::scenario::{browser_world, NetKind, PAGE_URL};
use simcore::SimDuration;

fn load_page(net: NetKind) {
    let world = browser_world(BrowserConfig::chrome(), net, 99);
    let mut doctor = Controller::new(world);
    doctor.advance(SimDuration::from_secs(2));
    doctor.interact(&replay::type_url(PAGE_URL));
    let rec = replay::load_page(&mut doctor, PAGE_URL, SimDuration::from_secs(60));
    let col = doctor.collect();

    println!("--- {} ---", net.label());
    // The one-call root-cause report.
    print!("{}", qoe_doctor::Diagnoser::new(&col).diagnose(&rec));
    if let Some(qxdm) = &col.qxdm {
        let res = residencies(qxdm, radio::RrcState::Pch, rec.start, rec.end);
        for r in &res {
            println!("  residency {:?} for {}", r.state, r.duration());
        }
        let rtts = first_hop_ota_rtts(qxdm, netstack::Direction::Uplink);
        if !rtts.is_empty() {
            let mean = rtts.iter().map(|(_, d)| d.as_secs_f64()).sum::<f64>() / rtts.len() as f64;
            println!(
                "  mean first-hop OTA RTT: {:.1} ms ({} samples)",
                mean * 1e3,
                rtts.len()
            );
        }
    }
}

fn main() {
    // The default 3G machine detours through FACH; the simplified machine
    // promotes straight to DCH — the §7.7 comparison.
    load_page(NetKind::Umts3g);
    load_page(NetKind::Umts3gSimplified);
}
