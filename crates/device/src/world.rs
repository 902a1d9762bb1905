//! The composed scenario: one phone, the internet, and the glue.
//!
//! A [`World`] implements [`Tick`] so `simcore::advance` can drive an
//! entire experiment: the phone's stack and radio, the packet exchange with
//! the internet hub, and every origin server.
//!
//! The world keeps one [`WakeCalendar`] with a wake slot per component:
//!
//! | ids            | component                                            |
//! |----------------|------------------------------------------------------|
//! | `4k .. 4k + 3` | phone `k` (0 = device under test, then peers): fault plan, link, app, host |
//! | `4P + i`       | origin server `i` (its app and host)                 |
//! | `4P + N`       | the resolver's answer queue                          |
//!
//! A step at instant `now` runs the due components in the order the
//! poll-everything loop used to: each phone (faults, link, app, host, then
//! its uplink into the internet), every due server, then the downlink back
//! to the phones. A component is re-registered after its own tick and after
//! every handoff into it, so a step never visits a component with nothing
//! to do. The calendar holds wakes only: the one component a step runs
//! before its wake is an app that follows every step
//! ([`Phone::app_follows`], read from the phone at each step).
//!
//! When a phone's cellular link is the only slot due and no app follows,
//! the step first runs the bearer's own later wakes up to just before the
//! earliest other wake ([`radio::bearer::CellBearer::run`]), and the rest
//! of the step runs at the instant the bearer stopped (DESIGN §7 "Kernel:
//! wake calendar").

use crate::phone::{NetAttachment, Phone};
use crate::servers::{Internet, Routed};
use netstack::IpPacket;
use simcore::{ComponentId, SimDuration, SimTime, Tick, WakeCalendar};

/// Calendar slots per phone.
const PHONE_PARTS: usize = 4;
const FAULTS: usize = 0;
const LINK: usize = 1;
const APP: usize = 2;
const HOST: usize = 3;

/// A phone attached to the internet, optionally alongside peer devices
/// (the paper's two-device experiments: device B is `phone`, device A a
/// peer).
pub struct World {
    /// The device under test (the one the controller drives and measures).
    pub phone: Phone,
    /// Autonomous peer devices (e.g. the posting "device A" of §7.3).
    pub peers: Vec<Phone>,
    /// Everything on the far side of the access networks.
    pub internet: Internet,
    cal: WakeCalendar,
    /// Packets crossing between a phone and the internet in one step.
    uplink: Vec<IpPacket>,
    downlink: Vec<IpPacket>,
}

impl World {
    /// Assemble a world.
    pub fn new(phone: Phone, internet: Internet) -> World {
        World {
            phone,
            peers: Vec::new(),
            internet,
            cal: WakeCalendar::default(),
            uplink: Vec::new(),
            downlink: Vec::new(),
        }
    }

    /// Attach an autonomous peer device.
    pub fn add_peer(&mut self, peer: Phone) {
        self.peers.push(peer);
    }

    fn phones(&self) -> usize {
        1 + self.peers.len()
    }

    fn node_id(&self, i: usize) -> ComponentId {
        PHONE_PARTS * self.phones() + i
    }

    fn dns_id(&self) -> ComponentId {
        self.node_id(self.internet.nodes.len())
    }

    /// The phone whose cellular link may run private instants in a step at
    /// `now`, and the instant they may run up to: when that link is the only
    /// slot due and no app follows, nothing else in the world runs before
    /// the earliest other wake, so the bearer's own wakes until just before
    /// it (or `target`) are instants where only the bearer works.
    fn private_run(&self, now: SimTime, target: SimTime) -> Option<(usize, SimTime)> {
        let k = (0..self.phones()).find(|&k| self.cal.is_due(PHONE_PARTS * k + LINK, now))?;
        let mut devices = std::iter::once(&self.phone).chain(&self.peers);
        if !matches!(devices.clone().nth(k)?.net, NetAttachment::Cell(_)) {
            return None;
        }
        let others = self.cal.others(PHONE_PARTS * k + LINK);
        if others.is_some_and(|w| w <= now) || devices.any(Phone::app_follows) {
            return None;
        }
        let limit = others.map_or(target, |w| target.min(w - SimDuration::from_micros(1)));
        Some((k, limit))
    }

    /// Human-readable name of a calendar component.
    fn component_name(&self, id: ComponentId) -> String {
        let phones = self.phones();
        if id < PHONE_PARTS * phones {
            let device = match id / PHONE_PARTS {
                0 => "phone".to_string(),
                k => format!("peer[{}]", k - 1),
            };
            let part = ["faults", "link", "app", "host"][id % PHONE_PARTS];
            return format!("{device}.{part}");
        }
        match self.internet.nodes.get(id - PHONE_PARTS * phones) {
            Some(node) => format!("server {}", node.name),
            None => "dns answers".to_string(),
        }
    }
}

/// Re-register every part of a phone.
fn register_phone(cal: &mut WakeCalendar, base: ComponentId, phone: &mut Phone) {
    cal.set(base + FAULTS, phone.faults_wake());
    register_link(cal, base, phone);
    register_app(cal, base, phone);
    register_host(cal, base, phone);
}

fn register_link(cal: &mut WakeCalendar, base: ComponentId, phone: &Phone) {
    cal.set(base + LINK, phone.link_wake());
}

fn register_app(cal: &mut WakeCalendar, base: ComponentId, phone: &Phone) {
    cal.set(base + APP, phone.app_wake());
}

fn register_host(cal: &mut WakeCalendar, base: ComponentId, phone: &mut Phone) {
    cal.set(base + HOST, phone.host_wake());
}

/// Run phone `k`'s due parts at `now` and route its uplink into the
/// internet, whose servers have ids from `nodes` on. The link may first run
/// private instants up to `limit` (`now` for none); the rest of the step then
/// runs at the instant the link stopped, which is returned.
// Each argument is a distinct borrow of the world the caller has split up;
// bundling them would only add a struct to unpack again here.
#[allow(clippy::too_many_arguments)]
fn step_phone(
    cal: &mut WakeCalendar,
    nodes: ComponentId,
    k: usize,
    phone: &mut Phone,
    internet: &mut Internet,
    uplink: &mut Vec<IpPacket>,
    mut now: SimTime,
    limit: SimTime,
) -> SimTime {
    let base = PHONE_PARTS * k;
    if cal.is_due(base + FAULTS, now) {
        phone.tick_faults(now);
        register_phone(cal, base, phone);
    }
    let link_due = cal.is_due(base + LINK, now);
    if link_due {
        let delivered;
        (now, delivered) = phone.tick_link(now, limit);
        if delivered {
            register_app(cal, base, phone);
            register_host(cal, base, phone);
        }
    }
    if phone.app_follows() || cal.is_due(base + APP, now) {
        phone.tick_app(now);
        register_app(cal, base, phone);
        register_host(cal, base, phone);
    }
    let mut sent = false;
    if cal.is_due(base + HOST, now) {
        sent = phone.tick_host(now);
        register_host(cal, base, phone);
    }
    if link_due {
        // Uplink leaves the access network only when the link is due: its
        // core pipe's arrivals are part of the link's wake.
        phone.take_uplink(now, uplink);
        for p in uplink.drain(..) {
            match internet.route(p, now) {
                Routed::Node(i) => cal.poke(nodes + i, now),
                Routed::Dns => cal.poke(nodes + internet.nodes.len(), now),
                Routed::Dropped => {}
            }
        }
    }
    if link_due || sent {
        register_link(cal, base, phone);
    }
    now
}

impl Tick for World {
    fn tick(&mut self, now: SimTime, target: SimTime) -> SimTime {
        let private = self.private_run(now, target);
        let World {
            phone,
            peers,
            internet,
            cal,
            uplink,
            downlink,
        } = self;
        let nodes = PHONE_PARTS * (1 + peers.len());
        let mut now = now;
        for k in 0..1 + peers.len() {
            let device = if k == 0 {
                &mut *phone
            } else {
                &mut peers[k - 1]
            };
            let limit = match private {
                Some((p, limit)) if p == k => limit,
                _ => now,
            };
            now = step_phone(cal, nodes, k, device, internet, uplink, now, limit);
        }
        // Servers, then their answers back toward the access networks: the
        // resolver's first, then each server's in order.
        let dns = nodes + internet.nodes.len();
        if cal.is_due(dns, now) {
            internet.take_dns_egress(downlink);
            cal.set(dns, None);
        }
        for i in 0..internet.nodes.len() {
            if cal.is_due(nodes + i, now) {
                internet.tick_node(i, now);
                internet.take_node_egress(i, downlink);
                cal.set(nodes + i, internet.node_wake(i));
            }
        }
        // Route downlink traffic to whichever device owns the address.
        for p in downlink.drain(..) {
            if p.dst.ip == phone.host.ip {
                phone.deliver_downlink(p, now);
                register_link(cal, 0, phone);
            } else if let Some(k) = peers.iter().position(|peer| peer.host.ip == p.dst.ip) {
                peers[k].deliver_downlink(p, now);
                register_link(cal, PHONE_PARTS * (k + 1), &peers[k]);
            }
        }
        now
    }

    fn next_wake(&self) -> Option<SimTime> {
        self.cal.next()
    }

    /// Rebuild the calendar from every component's wake: components are
    /// public and may have been changed since the last run (faults armed,
    /// a UI event injected, peers or servers added).
    fn resync(&mut self) {
        let slots = self.dns_id() + 1;
        if self.cal.len() != slots {
            self.cal = WakeCalendar::new(slots);
        }
        register_phone(&mut self.cal, 0, &mut self.phone);
        for (k, peer) in self.peers.iter_mut().enumerate() {
            register_phone(&mut self.cal, PHONE_PARTS * (k + 1), peer);
        }
        for i in 0..self.internet.nodes.len() {
            let id = self.node_id(i);
            let wake = self.internet.node_wake(i);
            self.cal.set(id, wake);
        }
        let dns = self.dns_id();
        self.cal.set(dns, self.internet.dns_wake());
    }

    fn due_report(&self, now: SimTime) -> String {
        self.cal.report(now, |id| self.component_name(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phone::{App, AppCx, NetAttachment, UiEvent};
    use crate::servers::ServerApp;
    use netstack::{IpAddr, SocketAddr};
    use simcore::DetRng;
    use std::cell::Cell;
    use std::rc::Rc;

    /// An app that asks for work at t = 0 forever and never does any.
    struct Spinning;

    impl App for Spinning {
        fn name(&self) -> &'static str {
            "spinning"
        }
        fn start(&mut self, _cx: &mut AppCx) {}
        fn on_ui_event(&mut self, _ev: &UiEvent, _cx: &mut AppCx) {}
        fn tick(&mut self, _cx: &mut AppCx) {}
        fn next_wake(&self) -> Option<SimTime> {
            Some(SimTime::ZERO)
        }
    }

    /// An app with no wakes of its own that counts its ticks shared with the
    /// test, and follows every step when told to.
    struct Counting {
        follows: bool,
        ticks: Rc<Cell<u32>>,
    }

    impl App for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn start(&mut self, _cx: &mut AppCx) {}
        fn on_ui_event(&mut self, _ev: &UiEvent, _cx: &mut AppCx) {}
        fn tick(&mut self, _cx: &mut AppCx) {
            self.ticks.set(self.ticks.get() + 1);
        }
        fn next_wake(&self) -> Option<SimTime> {
            None
        }
        fn follows_every_step(&self) -> bool {
            self.follows
        }
    }

    /// A server that wakes every second and does nothing.
    struct Metronome {
        next: SimTime,
    }

    impl ServerApp for Metronome {
        fn tick(&mut self, _host: &mut netstack::Host, now: SimTime, _rng: &mut DetRng) {
            while self.next <= now {
                self.next += SimDuration::from_secs(1);
            }
        }
        fn next_wake(&self) -> Option<SimTime> {
            Some(self.next)
        }
    }

    /// App ticks in a WiFi world whose only other work after launch is a
    /// server waking at 1, 2 and 3 s.
    fn app_ticks(follows: bool) -> u32 {
        let mut rng = DetRng::seed_from_u64(1);
        let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 53);
        let mut internet = Internet::new(resolver, rng.fork(1));
        let metronome = Metronome {
            next: SimTime::from_secs(1),
        };
        internet.add_server("metronome", IpAddr::new(31, 13, 0, 9), Box::new(metronome));
        let ticks = Rc::new(Cell::new(0));
        let app = Counting {
            follows,
            ticks: ticks.clone(),
        };
        let phone = Phone::new(
            IpAddr::new(10, 0, 0, 1),
            resolver,
            NetAttachment::wifi(&mut rng),
            Box::new(app),
            rng.fork(2),
        );
        let mut world = World::new(phone, internet);
        simcore::advance(&mut world, SimTime::ZERO, SimTime::from_millis(3_500));
        ticks.get()
    }

    #[test]
    fn only_a_following_app_runs_at_steps_other_components_caused() {
        // Both apps run at launch; only the follower also runs at the
        // server's three wakes.
        assert_eq!(app_ticks(false), 1);
        assert_eq!(app_ticks(true), 4);
    }

    #[test]
    #[should_panic(
        expected = "livelock at 0.000000s: components keep requesting work: phone.app (wake 0.000000s)"
    )]
    fn livelock_panic_names_the_due_components() {
        let mut rng = DetRng::seed_from_u64(1);
        let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), 53);
        let internet = Internet::new(resolver, rng.fork(1));
        let phone = Phone::new(
            IpAddr::new(10, 0, 0, 1),
            resolver,
            NetAttachment::wifi(&mut rng),
            Box::new(Spinning),
            rng.fork(2),
        );
        let mut world = World::new(phone, internet);
        simcore::advance(&mut world, SimTime::ZERO, SimTime::from_secs(1));
    }
}
