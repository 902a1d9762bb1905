//! The simulated Android device.
//!
//! A [`Phone`] owns a network stack ([`Host`]), an attachment (cellular
//! bearer or WiFi), the UI layout tree, one foreground [`App`], the tcpdump
//! capture at its IP boundary, and a CPU meter separating app work from
//! controller work (for the Table 3 overhead figure).
//!
//! The QoE Doctor controller (in the `qoe-doctor` crate) interacts with a
//! phone exactly the way the real tool does through InstrumentationTestCase:
//! it injects UI events ([`Phone::inject_ui`]) and parses the layout tree
//! ([`Phone::parse_ui`]), paying a parse cost each time.

use crate::ui::{UiTree, View, ViewSignature};
use netstack::link::{LinkConfig, Pipe};
use netstack::pcap::{Capture, Direction};
use netstack::{Host, IpAddr, IpPacket, SocketAddr};
use radio::bearer::CellBearer;
use simcore::{earlier, DetRng, SimDuration, SimTime};

/// A UI interaction the controller can inject.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UiEvent {
    /// Tap a view.
    Click {
        /// The view to tap.
        target: ViewSignature,
    },
    /// Pull/scroll gesture on a view.
    Scroll {
        /// The view to scroll.
        target: ViewSignature,
    },
    /// Type text into a view.
    TypeText {
        /// The view to type into.
        target: ViewSignature,
        /// The text.
        text: String,
    },
    /// Press the ENTER key (URL bar submission).
    KeyEnter,
}

/// CPU time accounting, split by who consumed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CpuMeter {
    /// CPU time spent by the app itself.
    pub app_busy: SimDuration,
    /// CPU time spent by the QoE Doctor controller (UI tree parsing).
    pub controller_busy: SimDuration,
}

/// Context handed to apps: everything on the device they may touch.
pub struct AppCx<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The device network stack.
    pub host: &'a mut Host,
    /// The UI layout tree.
    pub ui: &'a mut UiTree,
    /// Randomness (per-device stream).
    pub rng: &'a mut DetRng,
    /// CPU meter (apps add their processing time).
    pub cpu: &'a mut CpuMeter,
}

/// A foreground application.
pub trait App {
    /// Package-style name.
    fn name(&self) -> &'static str;
    /// App launch: build the UI, open persistent connections.
    fn start(&mut self, cx: &mut AppCx);
    /// Handle an injected UI interaction.
    fn on_ui_event(&mut self, ev: &UiEvent, cx: &mut AppCx);
    /// Drive app logic (poll sockets, fire internal timers).
    fn tick(&mut self, cx: &mut AppCx);
    /// Earliest self-scheduled work, if any. The phone also ticks the app
    /// whenever packets reach the host or a UI event is injected.
    fn next_wake(&self) -> Option<SimTime>;
    /// True while a tick before [`App::next_wake`] (with no packet or UI
    /// event since the last tick) is not a no-op: the app then runs at every
    /// step of the world, as the wake calendar's follower. An app that
    /// starts work in one tick and only picks it up in the next (a request
    /// created after its RPCs were polled) says so here.
    fn follows_every_step(&self) -> bool {
        false
    }
    /// Drop all in-memory state, as a process kill would. Called on an
    /// (injected or recovery-driven) app crash; `start` follows after the
    /// relaunch cost. The default is a no-op for stateless apps.
    fn reset(&mut self) {}
}

/// The device's network attachment.
pub enum NetAttachment {
    /// A cellular bearer (3G or LTE).
    Cell(Box<CellBearer>),
    /// WiFi: a plain duplex link to the internet.
    Wifi {
        /// Device → internet pipe.
        up: Pipe,
        /// Internet → device pipe.
        down: Pipe,
    },
}

impl NetAttachment {
    /// A typical home/office WiFi path: 30 Mb/s, ~12 ms one-way to servers.
    pub fn wifi(rng: &mut DetRng) -> NetAttachment {
        let cfg = LinkConfig {
            bandwidth_bps: 30e6,
            latency: SimDuration::from_millis(12),
            jitter_frac: 0.15,
            loss: 0.0,
            queue_bytes: 512_000,
        };
        NetAttachment::Wifi {
            up: Pipe::new(cfg.clone(), rng.fork(11)),
            down: Pipe::new(cfg, rng.fork(12)),
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            NetAttachment::Cell(b) => match b.rrc_state() {
                radio::RrcState::Dch | radio::RrcState::Fach | radio::RrcState::Pch => "3G",
                _ => "LTE",
            },
            NetAttachment::Wifi { .. } => "WiFi",
        }
    }
}

/// The simulated handset.
pub struct Phone {
    /// Device network stack.
    pub host: Host,
    /// Network attachment.
    pub net: NetAttachment,
    /// UI layout tree (with camera ground truth).
    pub ui: UiTree,
    /// The foreground app.
    pub app: Box<dyn App>,
    /// tcpdump-substitute capture at the IP boundary.
    pub capture: Capture,
    /// CPU accounting.
    pub cpu: CpuMeter,
    /// Device randomness.
    pub rng: DetRng,
    /// Base cost of one UI-tree parse pass.
    pub parse_base: SimDuration,
    /// Additional parse cost per view in the tree.
    pub parse_per_view: SimDuration,
    /// Fraction of a parse pass's wall time that is actual CPU work (the
    /// rest is spent blocked on UI-thread synchronization, which DDMS-style
    /// CPU accounting does not attribute to the controller).
    pub parse_cpu_fraction: f64,
    started: bool,
    /// Crashes the app has suffered (injected or recovery-driven).
    pub crashes: u32,
    ip: IpAddr,
    resolver: SocketAddr,
    /// Scheduled app crashes: `(at, relaunch_cost)`, kept sorted.
    crash_plan: Vec<(SimTime, SimDuration)>,
    /// A crash happened; the app comes back at this instant.
    relaunch_at: Option<SimTime>,
    /// Scheduled forced tech switches (cellular attachments only).
    tech_switches: Vec<(SimTime, radio::bearer::BearerConfig)>,
    /// The app must run at this instant: a UI event was injected or packets
    /// reached the host.
    app_poke: Option<SimTime>,
    /// Scratch packet buffer reused by every link tick.
    pkts: Vec<IpPacket>,
}

impl Phone {
    /// Assemble a phone at `ip` using `resolver`, attached via `net`,
    /// running `app`.
    pub fn new(
        ip: IpAddr,
        resolver: SocketAddr,
        net: NetAttachment,
        app: Box<dyn App>,
        mut rng: DetRng,
    ) -> Phone {
        let ui = UiTree::new(View::new("FrameLayout", "root"), rng.fork(21));
        Phone {
            host: Host::new(ip, resolver),
            net,
            ui,
            app,
            // Pre-sized like tcpdump's ring buffer: even short experiments
            // capture thousands of packets, and the record call sits on the
            // per-packet hot path.
            capture: Capture::with_capacity(4096),
            cpu: CpuMeter::default(),
            rng,
            parse_base: SimDuration::from_millis(24),
            parse_per_view: SimDuration::from_micros(150),
            parse_cpu_fraction: 0.018,
            started: false,
            crashes: 0,
            ip,
            resolver,
            crash_plan: Vec::new(),
            relaunch_at: None,
            tech_switches: Vec::new(),
            app_poke: None,
            pkts: Vec::new(),
        }
    }

    /// Schedule an app crash at `at`: the process dies (all connections
    /// and in-memory state lost, UI gone blank) and relaunches after
    /// `relaunch_cost`.
    pub fn schedule_crash(&mut self, at: SimTime, relaunch_cost: SimDuration) {
        self.crash_plan.push((at, relaunch_cost));
        self.crash_plan.sort_by_key(|(t, _)| *t);
    }

    /// Schedule a forced inter-RAT handover at `at` (no-op on WiFi).
    pub fn schedule_tech_switch(&mut self, at: SimTime, cfg: radio::bearer::BearerConfig) {
        self.tech_switches.push((at, cfg));
        self.tech_switches.sort_by_key(|(t, _)| *t);
    }

    /// True while the app is dead between a crash and its relaunch.
    pub fn app_down(&self) -> bool {
        self.relaunch_at.is_some()
    }

    /// Kill and relaunch the app right now (a controller recovery action):
    /// in-memory state and connections are lost, the UI goes blank, and
    /// the app starts again after `relaunch_cost`.
    pub fn force_relaunch(&mut self, now: SimTime, relaunch_cost: SimDuration) {
        self.crash(now, relaunch_cost);
    }

    fn crash(&mut self, now: SimTime, relaunch_cost: SimDuration) {
        self.crashes += 1;
        self.app.reset();
        // The process's sockets die with it; in-flight packets for them
        // are dropped by the fresh stack like on a real NIC.
        self.host = Host::new(self.ip, self.resolver);
        // Fresh ephemeral range per incarnation: the server still holds
        // flow state for the dead process's 4-tuples.
        self.host
            .set_ephemeral_base(40_000u16.wrapping_add((self.crashes as u16).wrapping_mul(1_000)));
        self.ui
            .mutate(now, "app:crash", |root| root.children = Default::default());
        self.relaunch_at = Some(now + relaunch_cost);
    }

    fn cx<'a>(
        host: &'a mut Host,
        ui: &'a mut UiTree,
        rng: &'a mut DetRng,
        cpu: &'a mut CpuMeter,
        now: SimTime,
    ) -> AppCx<'a> {
        AppCx {
            now,
            host,
            ui,
            rng,
            cpu,
        }
    }

    /// Inject a UI interaction (controller entry point). Events injected
    /// while the app is dead (crashed, not yet relaunched) are lost, as
    /// they would be on a real device.
    pub fn inject_ui(&mut self, ev: &UiEvent, now: SimTime) {
        // The app reacts at this instant (it runs, or is found dead).
        self.app_poke = Some(now);
        if self.app_down() {
            return;
        }
        let mut cx = Self::cx(
            &mut self.host,
            &mut self.ui,
            &mut self.rng,
            &mut self.cpu,
            now,
        );
        self.app.on_ui_event(ev, &mut cx);
    }

    /// Parse the UI layout tree (controller's `see`/`wait` component).
    /// Returns a snapshot plus the simulated time the parse took — the
    /// `t_parsing` of Fig. 4, priced per view in the tree. The snapshot
    /// shares storage with the live tree (see [`UiTree::observe`]), so the
    /// host cost of a pass does not grow with the tree. During an injected
    /// UI freeze the snapshot is the stale pre-freeze tree, exactly what
    /// InstrumentationTestCase would read from a wedged UI thread.
    pub fn parse_ui(&mut self, now: SimTime) -> (View, SimDuration) {
        let (view, _) = self.ui.observe(now);
        let views = self.ui.observed_views(now) as u64;
        let mean = self.parse_base + self.parse_per_view * views;
        let cost = self.rng.jittered(mean, 0.25);
        self.cpu.controller_busy += cost.mul_f64(self.parse_cpu_fraction);
        (view, cost)
    }

    /// The observable UI revision at `now` (pinned during a freeze). The
    /// controller's UI watchdog compares successive values to detect a
    /// frozen layout tree.
    pub fn ui_revision(&mut self, now: SimTime) -> u64 {
        self.ui.observed_revision(now)
    }

    // ---- Components ----
    //
    // A world step runs the phone as four components, in this order: the
    // fault plan (launch, crashes, relaunches, tech switches), the link
    // (bearer or WiFi pipes, delivering downlink packets to the host), the
    // app, and the host (protocol timers and uplink egress). Each reports
    // its own wake; a tick before it is a no-op, except for the link and
    // app while they report `*_follows`.

    /// Wake of the fault plan: the first launch, then scheduled crashes,
    /// relaunches and tech switches.
    pub fn faults_wake(&self) -> Option<SimTime> {
        let mut wake = self.crash_plan.first().map(|(at, _)| *at);
        wake = earlier(wake, self.relaunch_at);
        wake = earlier(wake, self.tech_switches.first().map(|(at, _)| *at));
        if !self.started {
            wake = earlier(wake, Some(SimTime::ZERO));
        }
        wake
    }

    /// Launch the app on the first tick, then apply the scheduled faults due
    /// at or before `now`. May replace the host and reset the app, which
    /// therefore runs at `now` too.
    pub fn tick_faults(&mut self, now: SimTime) {
        self.app_poke = Some(now);
        if !self.started {
            self.started = true;
            let mut cx = Self::cx(
                &mut self.host,
                &mut self.ui,
                &mut self.rng,
                &mut self.cpu,
                now,
            );
            self.app.start(&mut cx);
        }
        while self
            .crash_plan
            .first()
            .is_some_and(|(at, _)| *at <= now && !self.app_down())
        {
            let (_, cost) = self.crash_plan.remove(0);
            self.crash(now, cost);
        }
        if self.relaunch_at.is_some_and(|t| t <= now) {
            self.relaunch_at = None;
            let mut cx = Self::cx(
                &mut self.host,
                &mut self.ui,
                &mut self.rng,
                &mut self.cpu,
                now,
            );
            self.app.start(&mut cx);
        }
        while self.tech_switches.first().is_some_and(|(at, _)| *at <= now) {
            let (_, cfg) = self.tech_switches.remove(0);
            if let NetAttachment::Cell(b) = &mut self.net {
                let mut rng = self.rng.fork(97);
                b.switch_tech(cfg, &mut rng, now);
            }
        }
    }

    /// Wake of the access network, both directions.
    pub fn link_wake(&self) -> Option<SimTime> {
        match &self.net {
            NetAttachment::Cell(b) => b.next_wake(),
            NetAttachment::Wifi { up, down } => earlier(up.next_wake(), down.next_wake()),
        }
    }

    /// True while the link must run at every step (see
    /// [`CellBearer::follows_every_step`]). WiFi pipes never do.
    pub fn link_follows(&self) -> bool {
        match &self.net {
            NetAttachment::Cell(b) => b.follows_every_step(),
            NetAttachment::Wifi { .. } => false,
        }
    }

    /// Advance the access network and deliver downlink arrivals to the
    /// stack through the capture tap. Returns true when a packet reached the
    /// host (the app is then due at `now`).
    pub fn tick_link(&mut self, now: SimTime) -> bool {
        match &mut self.net {
            NetAttachment::Cell(b) => {
                b.tick(now);
                b.recv_for_phone(now, &mut self.pkts);
            }
            NetAttachment::Wifi { down, .. } => {
                down.deliver(now, &mut self.pkts);
            }
        }
        let delivered = !self.pkts.is_empty();
        for p in self.pkts.drain(..) {
            self.capture.record(Direction::Downlink, &p, now);
            self.host.on_packet(&p, now);
        }
        if delivered {
            self.app_poke = Some(now);
        }
        delivered
    }

    /// Wake of the app: its own timers while it is alive, and a pending
    /// poke.
    pub fn app_wake(&self) -> Option<SimTime> {
        let own = if self.app_down() {
            None
        } else {
            self.app.next_wake()
        };
        earlier(own, self.app_poke)
    }

    /// True while the app must run at every step (see
    /// [`App::follows_every_step`]). A dead app runs nothing.
    pub fn app_follows(&self) -> bool {
        !self.app_down() && self.app.follows_every_step()
    }

    /// Run the app logic (a dead process runs nothing).
    pub fn tick_app(&mut self, now: SimTime) {
        self.app_poke = None;
        if !self.app_down() {
            let mut cx = Self::cx(
                &mut self.host,
                &mut self.ui,
                &mut self.rng,
                &mut self.cpu,
                now,
            );
            self.app.tick(&mut cx);
        }
    }

    /// Wake of the network stack.
    pub fn host_wake(&mut self) -> Option<SimTime> {
        self.host.next_wake()
    }

    /// Run protocol machinery, then move the uplink through the capture tap
    /// into the access network, each packet straight from the egress ring
    /// with no intermediate `Vec`. Returns true when a packet entered the
    /// link (its wake then changed).
    pub fn tick_host(&mut self, now: SimTime) -> bool {
        self.host.poll(now);
        let mut sent = false;
        while let Some(p) = self.host.pop_egress() {
            sent = true;
            self.capture.record(Direction::Uplink, &p, now);
            match &mut self.net {
                NetAttachment::Cell(b) => b.send_uplink(p, now),
                NetAttachment::Wifi { up, .. } => up.send(p, now),
            }
        }
        sent
    }

    /// Append to `out` the packets leaving the device's access network
    /// toward the internet.
    pub fn take_uplink(&mut self, now: SimTime, out: &mut Vec<IpPacket>) {
        match &mut self.net {
            NetAttachment::Cell(b) => b.recv_for_internet(now, out),
            NetAttachment::Wifi { up, .. } => {
                up.deliver(now, out);
            }
        }
    }

    /// A packet arriving from the internet enters the access network.
    pub fn deliver_downlink(&mut self, pkt: IpPacket, now: SimTime) {
        match &mut self.net {
            NetAttachment::Cell(b) => b.send_downlink(pkt, now),
            NetAttachment::Wifi { down, .. } => down.send(pkt, now),
        }
    }
}
