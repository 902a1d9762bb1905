//! Differential test of the wake-calendar kernel.
//!
//! The reference kernel here ticks every component of the world at every
//! instant where anything is due — the poll-everything loop the calendar
//! replaced — and rebuilds the world's next wake by sweeping every component
//! after each step. It never runs a cellular bearer's private instants
//! inside a step. Both kernels run the same experiment sessions (§7.7 page
//! loads on every access network, including throttled ones, the Fig. 17
//! video grid, the chaos fault cells, a forced tech switch during a page
//! load, and posts in the two-device Facebook world) at both pinned seeds;
//! the bundles they save must be byte-identical.

use device::apps::FbVersion;
use device::{Phone, World};
use faults::{FaultKind, FaultPlan};
use qoe_doctor::{replay, Calendar, Collection, Controller, Kernel};
use radio::RadioTech;
use repro::scenario::{facebook_world, NetKind, PUSH_BYTES};
use repro::{chaos, exp75, exp77};
use simcore::{earlier, SimDuration, SimTime, Tick};
use std::path::{Path, PathBuf};
use trace::{BundleArtifact, BundleMeta};

const SEEDS: [u64; 2] = [20140705, 4242017];

/// Poll-everything reference kernel.
enum PollAll {}

impl Kernel for PollAll {
    fn advance(world: &mut World, now: SimTime, target: SimTime) {
        simcore::advance(&mut Reference { world, wake: None }, now, target);
    }
}

struct Reference<'a> {
    world: &'a mut World,
    wake: Option<SimTime>,
}

fn phone_wake(phone: &mut Phone) -> Option<SimTime> {
    let mut wake = earlier(phone.faults_wake(), phone.link_wake());
    wake = earlier(wake, phone.app_wake());
    earlier(wake, phone.host_wake())
}

impl Reference<'_> {
    /// Every component's wake, visited one by one.
    fn sweep(&mut self) -> Option<SimTime> {
        let World {
            phone,
            peers,
            internet,
            ..
        } = &mut *self.world;
        let mut wake = phone_wake(phone);
        for peer in peers.iter_mut() {
            wake = earlier(wake, phone_wake(peer));
        }
        for i in 0..internet.nodes.len() {
            wake = earlier(wake, internet.node_wake(i));
        }
        earlier(wake, internet.dns_wake())
    }
}

impl Tick for Reference<'_> {
    fn tick(&mut self, now: SimTime, _target: SimTime) -> SimTime {
        let World {
            phone,
            peers,
            internet,
            ..
        } = &mut *self.world;
        let mut packets = Vec::new();
        for device in std::iter::once(&mut *phone).chain(peers.iter_mut()) {
            device.tick_faults(now);
            device.tick_link(now, now);
            device.tick_app(now);
            device.tick_host(now);
            device.take_uplink(now, &mut packets);
            for p in packets.drain(..) {
                internet.route(p, now);
            }
        }
        internet.take_dns_egress(&mut packets);
        for i in 0..internet.nodes.len() {
            internet.tick_node(i, now);
            internet.take_node_egress(i, &mut packets);
        }
        for p in packets.drain(..) {
            if p.dst.ip == phone.host.ip {
                phone.deliver_downlink(p, now);
            } else if let Some(peer) = peers.iter_mut().find(|peer| peer.host.ip == p.dst.ip) {
                peer.deliver_downlink(p, now);
            }
        }
        self.wake = self.sweep();
        now
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.wake
    }

    fn resync(&mut self) {
        self.wake = self.sweep();
    }
}

fn scratch_dir(label: &str) -> PathBuf {
    let safe: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    std::env::temp_dir().join(format!(
        "qoe-kernel-differential-{}-{safe}",
        std::process::id()
    ))
}

/// Every file under `dir`, relative path → bytes, in path order.
fn read_tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("read bundle dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).expect("under dir").to_path_buf();
                out.push((rel, std::fs::read(&path).expect("read bundle file")));
            }
        }
    }
    out.sort();
    out
}

/// Save both collections as bundles and require identical bytes.
fn assert_same_bundles(label: &str, seed: u64, calendar: &Collection, reference: &Collection) {
    let dir = scratch_dir(label);
    let meta = |end| BundleMeta {
        seed,
        config_digest: 0,
        scenario: label.to_string(),
        end,
    };
    let (cal_dir, ref_dir) = (dir.join("calendar"), dir.join("reference"));
    calendar
        .save_bundle(&cal_dir, &meta(calendar.end))
        .expect("save calendar bundle");
    reference
        .save_bundle(&ref_dir, &meta(reference.end))
        .expect("save reference bundle");
    let (a, b) = (read_tree(&cal_dir), read_tree(&ref_dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!a.is_empty(), "{label}: empty bundle");
    assert_eq!(
        a.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        b.iter().map(|(p, _)| p).collect::<Vec<_>>(),
        "{label}: bundle file sets differ"
    );
    for ((path, x), (_, y)) in a.iter().zip(&b) {
        assert!(
            x == y,
            "{label}: {} differs between kernels",
            path.display()
        );
    }
    assert!(calendar == reference, "{label}: collections differ");
}

#[test]
fn page_loads_match_the_reference_kernel() {
    for seed in SEEDS {
        for browser in [
            device::apps::BrowserConfig::chrome,
            device::apps::BrowserConfig::firefox,
        ] {
            for net in [NetKind::Umts3g, NetKind::Umts3gSimplified, NetKind::Lte] {
                let label = format!("exp77/{}/{}/{seed}", browser().name, net.label());
                let cal = exp77::session::<Calendar>(browser(), net, 2, seed);
                let reference = exp77::session::<PollAll>(browser(), net, 2, seed);
                assert_same_bundles(&label, seed, &cal, &reference);
            }
        }
    }
}

#[test]
fn fig17_video_grid_matches_the_reference_kernel() {
    for seed in SEEDS {
        for net in [
            NetKind::Umts3g,
            NetKind::Lte,
            NetKind::Umts3gThrottled(exp75::CAP_RATE),
            NetKind::LteThrottled(exp75::CAP_RATE),
        ] {
            let label = format!("fig17/{}/{seed}", net.label());
            let cal = exp75::watch_session::<Calendar>(net, 1, seed);
            let reference = exp75::watch_session::<PollAll>(net, 1, seed);
            assert_same_bundles(&label, seed, &cal, &reference);
        }
    }
}

#[test]
fn chaos_video_cells_match_the_reference_kernel() {
    let net = NetKind::LteThrottled(900e3);
    for seed in SEEDS {
        for (fault, plan) in chaos::video_grid() {
            let label = format!("chaos/video/{fault}/{seed}");
            let cal = chaos::video_session::<Calendar>(&plan, net, seed);
            let reference = chaos::video_session::<PollAll>(&plan, net, seed);
            assert_eq!(cal.attempts, reference.attempts, "{label}");
            assert_eq!(cal.crashes, reference.crashes, "{label}");
            assert_same_bundles(&label, seed, &cal.col, &reference.col);
        }
    }
}

#[test]
fn chaos_page_cells_match_the_reference_kernel() {
    for seed in SEEDS {
        for (fault, plan) in chaos::page_grid() {
            let label = format!("chaos/page/{fault}/{seed}");
            let cal = chaos::page_session::<Calendar>(&plan, seed);
            let reference = chaos::page_session::<PollAll>(&plan, seed);
            assert_eq!(cal.attempts, reference.attempts, "{label}");
            assert_eq!(cal.crashes, reference.crashes, "{label}");
            assert_same_bundles(&label, seed, &cal.col, &reference.col);
        }
    }
}

#[test]
fn wifi_and_throttled_page_loads_match_the_reference_kernel() {
    for seed in SEEDS {
        // Throttled bearers refill their limiters at their own wakes only,
        // while the reference ticks them at every instant anything is due.
        for net in [
            NetKind::Wifi,
            NetKind::Umts3gThrottled(900e3),
            NetKind::LteThrottled(900e3),
        ] {
            let browser = device::apps::BrowserConfig::chrome;
            let label = format!("exp77/{}/{}/{seed}", browser().name, net.label());
            let cal = exp77::session::<Calendar>(browser(), net, 2, seed);
            let reference = exp77::session::<PollAll>(browser(), net, 2, seed);
            assert_same_bundles(&label, seed, &cal, &reference);
        }
    }
}

#[test]
fn tech_switch_during_a_page_load_matches_the_reference_kernel() {
    // The 3G page cell's first load starts at 2 s; the handover to LTE
    // lands while its promotion and transfer are under way.
    let plan = FaultPlan::new().with_kind(FaultKind::TechSwitch {
        at: SimTime::from_millis(3_500),
        to: RadioTech::Lte,
    });
    for seed in SEEDS {
        let label = format!("chaos/page/tech_switch/{seed}");
        let cal = chaos::page_session::<Calendar>(&plan, seed);
        let reference = chaos::page_session::<PollAll>(&plan, seed);
        assert_eq!(cal.attempts, reference.attempts, "{label}");
        assert_same_bundles(&label, seed, &cal.col, &reference.col);
    }
}

/// exp72's photo posts from device B on 3G, in the two-device world where
/// device A, a WiFi peer, posts every 10 s and the origin relays each post
/// to device B. The peer's wakes bound device B's private runs.
fn two_device_posts<K: Kernel>(seed: u64) -> Collection {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        false,
        Some(SimDuration::from_secs(10)),
        PUSH_BYTES,
        NetKind::Umts3g,
        seed,
        false,
    );
    let mut doctor = Controller::<K>::with_kernel(world);
    doctor.advance(SimDuration::from_secs(30));
    for rep in 0..2 {
        replay::upload_post(
            &mut doctor,
            "upload_post:photos",
            &format!("photos: vacation ts#{rep}"),
            SimDuration::from_secs(120),
        );
        doctor.advance(SimDuration::from_secs(2));
    }
    doctor.advance(SimDuration::from_secs(30));
    doctor.collect()
}

#[test]
fn two_device_posts_match_the_reference_kernel() {
    for seed in SEEDS {
        let label = format!("exp72/two-device/3G/{seed}");
        let cal = two_device_posts::<Calendar>(seed);
        let reference = two_device_posts::<PollAll>(seed);
        assert_same_bundles(&label, seed, &cal, &reference);
    }
}
