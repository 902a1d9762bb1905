//! Scenario builders shared by every experiment: network attachments,
//! server farms, and phones running each app under test.

use device::apps::{
    BrowserApp, BrowserConfig, FacebookApp, FacebookConfig, FacebookPoster, FbVersion,
    PosterConfig, VideoSpec, YouTubeApp, YouTubeConfig, FACEBOOK_API_HOST, FACEBOOK_POST_HOST,
    FACEBOOK_PUSH_HOST, YOUTUBE_AD_HOST, YOUTUBE_API_HOST, YOUTUBE_VIDEO_HOST,
};
use device::{App, FacebookOrigin, Internet, NetAttachment, Phone, RpcServer, World};
use netstack::dns::DNS_PORT;
use netstack::{IpAddr, SocketAddr};
use radio::bearer::{BearerConfig, CellBearer};
use radio::rrc::{Rrc3gConfig, RrcConfig};
use simcore::{DetRng, SimDuration};

/// The network conditions the paper compares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetKind {
    /// Carrier C1 3G.
    Umts3g,
    /// Carrier C1 LTE.
    Lte,
    /// WiFi.
    Wifi,
    /// C1 3G with post-cap throttling (traffic shaping) at the given rate.
    Umts3gThrottled(f64),
    /// C1 LTE with post-cap throttling (traffic policing) at the given rate.
    LteThrottled(f64),
    /// §7.7's simplified 3G RRC machine (direct PCH→DCH).
    Umts3gSimplified,
    /// C1 3G after a carrier RRC timer change: the PCH→FACH promotion
    /// takes [`SLOW_PCH_TO_FACH`] instead of the default 1.4 s (the
    /// longitudinal-monitoring drift scenario).
    Umts3gSlowPromo,
}

/// PCH→FACH promotion delay after the carrier's RRC timer change.
pub const SLOW_PCH_TO_FACH: SimDuration = SimDuration::from_millis(4_400);

impl NetKind {
    /// Short label for report rows.
    pub fn label(&self) -> String {
        match self {
            NetKind::Umts3g => "3G".into(),
            NetKind::Lte => "LTE".into(),
            NetKind::Wifi => "WiFi".into(),
            NetKind::Umts3gThrottled(r) => format!("3G-shaped@{}kbps", (r / 1e3) as u64),
            NetKind::LteThrottled(r) => format!("LTE-policed@{}kbps", (r / 1e3) as u64),
            NetKind::Umts3gSimplified => "3G-simplified".into(),
            NetKind::Umts3gSlowPromo => "3G-slowpromo".into(),
        }
    }

    /// Build the attachment.
    pub fn attach(&self, rng: &mut DetRng) -> NetAttachment {
        self.attach_cfg(rng, true)
    }

    /// Build the attachment with per-PDU QxDM logging disabled (long bulk
    /// runs where only RRC transitions matter).
    pub fn attach_light(&self, rng: &mut DetRng) -> NetAttachment {
        self.attach_cfg(rng, false)
    }

    fn attach_cfg(&self, rng: &mut DetRng, log_pdus: bool) -> NetAttachment {
        let mut cfg = match self {
            NetKind::Wifi => return NetAttachment::wifi(rng),
            NetKind::Umts3g => BearerConfig::umts_3g(),
            NetKind::Lte => BearerConfig::lte(),
            NetKind::Umts3gThrottled(r) => BearerConfig::umts_3g().with_throttle(*r),
            NetKind::LteThrottled(r) => BearerConfig::lte().with_throttle(*r),
            NetKind::Umts3gSimplified => {
                let mut c = BearerConfig::umts_3g();
                c.rrc = RrcConfig::Umts3g(Rrc3gConfig::simplified());
                c
            }
            NetKind::Umts3gSlowPromo => {
                let mut c = BearerConfig::umts_3g();
                c.rrc = RrcConfig::Umts3g(Rrc3gConfig {
                    pch_to_fach: SLOW_PCH_TO_FACH,
                    ..Rrc3gConfig::default()
                });
                c
            }
        };
        cfg.qxdm.log_pdus = log_pdus;
        NetAttachment::Cell(Box::new(CellBearer::new(cfg, rng)))
    }
}

/// The shared resolver endpoint.
pub fn resolver() -> SocketAddr {
    SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT)
}

/// The phone's address.
pub fn phone_ip() -> IpAddr {
    IpAddr::new(10, 40, 0, 2)
}

fn build_world(app: Box<dyn App>, net: NetKind, seed: u64, light_qxdm: bool) -> World {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut internet = Internet::new(resolver(), rng.fork(1));
    // Facebook origins: a fast read path and a heavier write path (the
    // write path's server time is what pushes post acknowledgements past
    // the local-echo QoE window, Finding 1).
    internet.add_server(
        FACEBOOK_API_HOST,
        IpAddr::new(31, 13, 64, 1),
        Box::new(RpcServer::new(&[443]).with_delay(SimDuration::from_millis(320))),
    );
    // The Facebook write/push origin is added by `facebook_world_cfg`.
    // YouTube origins.
    internet.add_server(
        YOUTUBE_API_HOST,
        IpAddr::new(74, 125, 0, 1),
        Box::new(RpcServer::new(&[443]).with_delay(SimDuration::from_millis(250))),
    );
    internet.add_server(
        YOUTUBE_VIDEO_HOST,
        IpAddr::new(74, 125, 0, 2),
        Box::new(RpcServer::new(&[443]).with_delay(SimDuration::from_millis(60))),
    );
    internet.add_server(
        YOUTUBE_AD_HOST,
        IpAddr::new(74, 125, 0, 3),
        Box::new(RpcServer::new(&[443]).with_delay(SimDuration::from_millis(80))),
    );
    // Web origins.
    internet.add_server(
        "www.example.com",
        IpAddr::new(93, 184, 216, 34),
        Box::new(RpcServer::new(&[80, 443]).with_delay(SimDuration::from_millis(120))),
    );
    let attachment = if light_qxdm {
        net.attach_light(&mut rng)
    } else {
        net.attach(&mut rng)
    };
    let phone = Phone::new(phone_ip(), resolver(), attachment, app, rng.fork(2));
    World::new(phone, internet)
}

/// A Facebook scenario from an explicit app config: device B's phone plus,
/// when `post_interval` is given, a real "device A" peer phone whose
/// Facebook app posts on that schedule. The write origin relays each
/// acknowledged post as a `push_bytes` notification down device B's
/// persistent push channel — the paper's two-device §7.3/§7.4 setup.
pub fn facebook_world_cfg(
    cfg: FacebookConfig,
    post_interval: Option<SimDuration>,
    push_bytes: u64,
    net: NetKind,
    seed: u64,
    light_qxdm: bool,
) -> World {
    let app = Box::new(FacebookApp::new(cfg));
    let mut world = build_world(app, net, seed, light_qxdm);
    let origin_ip = IpAddr::new(31, 13, 64, 2);
    world.internet.add_server(
        FACEBOOK_POST_HOST,
        origin_ip,
        Box::new(FacebookOrigin::new(
            push_bytes,
            SimDuration::from_millis(1_100),
        )),
    );
    world.internet.add_alias(FACEBOOK_PUSH_HOST, origin_ip);
    if let Some(interval) = post_interval {
        // Device A: a WiFi peer running the posting app.
        let mut rng = DetRng::seed_from_u64(seed ^ 0xA11CE);
        let poster = FacebookPoster::new(PosterConfig::every(interval));
        let peer = Phone::new(
            IpAddr::new(10, 50, 0, 3),
            resolver(),
            NetAttachment::wifi(&mut rng),
            Box::new(poster),
            rng.fork(2),
        );
        world.add_peer(peer);
    }
    world
}

/// Convenience Facebook scenario (see [`facebook_world_cfg`]).
// The arguments are the scenario's knobs, named at every call site.
#[allow(clippy::too_many_arguments)]
pub fn facebook_world(
    version: FbVersion,
    refresh_interval: Option<SimDuration>,
    auto_update_on_push: bool,
    push_interval: Option<SimDuration>,
    push_bytes: u64,
    net: NetKind,
    seed: u64,
    light_qxdm: bool,
) -> World {
    let mut cfg = FacebookConfig::new(version);
    cfg.refresh_interval = refresh_interval;
    cfg.auto_update_on_push = auto_update_on_push;
    facebook_world_cfg(cfg, push_interval, push_bytes, net, seed, light_qxdm)
}

/// Default notification payload (friend post + preview content).
pub const PUSH_BYTES: u64 = 9_000;

/// A YouTube scenario with the given dataset (and optional pre-roll ad).
pub fn youtube_world(
    videos: Vec<VideoSpec>,
    ad: Option<VideoSpec>,
    net: NetKind,
    seed: u64,
    light_qxdm: bool,
) -> World {
    let cfg = YouTubeConfig { videos, ad };
    build_world(Box::new(YouTubeApp::new(cfg)), net, seed, light_qxdm)
}

/// The page every browser session loads, served by the web origin of
/// [`browser_world`].
pub const PAGE_URL: &str = "http://www.example.com/";

/// A browser scenario.
pub fn browser_world(cfg: BrowserConfig, net: NetKind, seed: u64) -> World {
    build_world(Box::new(BrowserApp::new(cfg)), net, seed, false)
}

/// The synthetic video dataset of §7.5: 260 videos ("a".."z" × top 10),
/// diverse in length and popularity. Durations are scaled down ~10× from
/// the paper's 1–30 min so the full sweep stays tractable; bitrates span
/// 2014-era mobile encodings.
pub fn video_dataset(seed: u64) -> Vec<VideoSpec> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for letter in b'a'..=b'z' {
        for i in 0..10 {
            let duration = SimDuration::from_secs_f64(rng.range_f64(20.0, 160.0));
            let bitrate = rng.range_f64(300e3, 750e3);
            out.push(VideoSpec {
                name: format!("{}{:02}", letter as char, i),
                duration,
                bitrate_bps: bitrate,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_has_260_videos() {
        let d = video_dataset(1);
        assert_eq!(d.len(), 260);
        assert!(d.iter().all(|v| v.duration >= SimDuration::from_secs(20)));
        assert!(d
            .iter()
            .all(|v| v.bitrate_bps >= 300e3 && v.bitrate_bps <= 750e3));
        // Deterministic.
        let d2 = video_dataset(1);
        assert_eq!(d[0].name, d2[0].name);
        assert_eq!(d[0].duration, d2[0].duration);
    }

    #[test]
    fn net_labels() {
        assert_eq!(NetKind::Umts3g.label(), "3G");
        assert_eq!(NetKind::LteThrottled(128e3).label(), "LTE-policed@128kbps");
    }
}
