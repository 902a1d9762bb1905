//! Quickstart: measure a web page load with QoE Doctor.
//!
//! Builds the smallest complete scenario — a phone on WiFi running Chrome
//! plus one web origin — replays "type URL, press ENTER", and measures the
//! page load time from the progress bar, exactly as Table 1 describes.
//!
//! Run with: `cargo run --example quickstart`

use device::apps::{BrowserApp, BrowserConfig};
use device::{Internet, NetAttachment, Phone, RpcServer, World};
use netstack::dns::DNS_PORT;
use netstack::{IpAddr, SocketAddr};
use qoe_doctor::{replay, Controller};
use simcore::{DetRng, SimDuration};

fn main() {
    // 1. The internet: a resolver and one web origin.
    let mut rng = DetRng::seed_from_u64(42);
    let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
    let mut internet = Internet::new(resolver, rng.fork(1));
    internet.add_server(
        "www.example.com",
        IpAddr::new(93, 184, 216, 34),
        Box::new(RpcServer::new(&[80]).with_delay(SimDuration::from_millis(120))),
    );

    // 2. The device: a phone on WiFi running Chrome.
    let phone = Phone::new(
        IpAddr::new(10, 0, 0, 2),
        resolver,
        NetAttachment::wifi(&mut rng),
        Box::new(BrowserApp::new(BrowserConfig::chrome())),
        rng.fork(2),
    );

    // 3. QoE Doctor takes control: replay the behaviour, measure the wait.
    let mut doctor = Controller::new(World::new(phone, internet));
    doctor.advance(SimDuration::from_secs(1)); // app launch settles

    let url = "http://www.example.com/";
    doctor.interact(&replay::type_url(url));
    let rec = replay::load_page(&mut doctor, url, SimDuration::from_secs(60));

    println!("raw measurement  : {}", rec.raw());
    println!("mean parse cost  : {}", rec.mean_parse);
    println!("calibrated latency: {}", rec.calibrated());

    // 4. Offline analysis: what did the network do during the QoE window?
    let col = doctor.collect();
    let breakdown = qoe_doctor::analyze::crosslayer::window_breakdown(&rec, &col.trace);
    println!(
        "network {} / device {} of {} total",
        breakdown.network_latency, breakdown.device_latency, breakdown.user_latency
    );
    let report = qoe_doctor::analyze::transport::TransportReport::analyze(&col.trace);
    for flow in &report.flows {
        println!(
            "flow {} -> {:?}: up {} B down {} B",
            flow.key, flow.server, flow.ul_wire, flow.dl_wire
        );
    }
}
