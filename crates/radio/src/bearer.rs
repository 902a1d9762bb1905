//! The cellular bearer: RRC + RLC + carrier throttle + core network.
//!
//! Everything between the phone's IP layer and the public internet for a
//! cellular attachment:
//!
//! ```text
//!  phone IP  ──► UL RLC ──► [UL limiter] ──► core pipe ──►  internet
//!  phone IP  ◄── DL RLC ◄── [DL limiter] ◄── core pipe ◄──  internet
//!                 ▲   ▲
//!                RRC  QxDM (observes RRC transitions + every PDU)
//! ```
//!
//! Data arrival in a low-power RRC state triggers promotion; nothing moves
//! over the air until promotion completes — this is the promotion delay web
//! browsing experiences in §7.7. Carrier throttling (§7.5) is a token-bucket
//! [`RateLimiter`] applied at the base station.

use crate::qxdm::{Qxdm, QxdmConfig, StatusRecord};
use crate::rlc::{PduEvent, RlcChannel, RlcConfig};
use crate::rrc::{RadioTech, Rrc3gConfig, RrcConfig, RrcLteConfig, RrcMachine, RrcState};
use netstack::link::{LinkConfig, Pipe};
use netstack::pcap::Direction;
use netstack::shaper::{RateLimiter, ShaperConfig};
use netstack::IpPacket;
use simcore::{earlier, DetRng, SimDuration, SimTime};

/// Complete bearer parameters.
#[derive(Debug, Clone)]
pub struct BearerConfig {
    /// Control-plane machine.
    pub rrc: RrcConfig,
    /// Uplink RLC.
    pub rlc_ul: RlcConfig,
    /// Downlink RLC.
    pub rlc_dl: RlcConfig,
    /// Uplink air rate in the full-rate state (DCH / LTE connected).
    pub ul_rate_bps: f64,
    /// Downlink air rate in the full-rate state.
    pub dl_rate_bps: f64,
    /// Shared-channel rate while in FACH (both directions).
    pub fach_rate_bps: f64,
    /// One-way core network latency (base station ↔ internet).
    pub core_latency: SimDuration,
    /// Carrier throttle applied to downlink traffic at the base station.
    pub limiter_dl: Option<ShaperConfig>,
    /// Carrier throttle applied to uplink traffic at the base station.
    pub limiter_ul: Option<ShaperConfig>,
    /// Diagnostic logger parameters.
    pub qxdm: QxdmConfig,
}

impl BearerConfig {
    /// Carrier C1's 3G (HSPA-class) bearer.
    pub fn umts_3g() -> BearerConfig {
        BearerConfig {
            rrc: RrcConfig::Umts3g(Rrc3gConfig::default()),
            rlc_ul: RlcConfig::umts_uplink(),
            rlc_dl: RlcConfig::umts_downlink(),
            ul_rate_bps: 1.6e6,
            dl_rate_bps: 4.0e6,
            fach_rate_bps: 280e3,
            core_latency: SimDuration::from_millis(35),
            limiter_dl: None,
            limiter_ul: None,
            qxdm: QxdmConfig::default(),
        }
    }

    /// Carrier C1's LTE bearer.
    pub fn lte() -> BearerConfig {
        BearerConfig {
            rrc: RrcConfig::Lte(RrcLteConfig::default()),
            rlc_ul: RlcConfig::lte(),
            rlc_dl: RlcConfig::lte_downlink(),
            ul_rate_bps: 2.5e6,
            dl_rate_bps: 20.0e6,
            fach_rate_bps: 8.0e6, // no FACH on LTE; unused
            core_latency: SimDuration::from_millis(15),
            limiter_dl: None,
            limiter_ul: None,
            qxdm: QxdmConfig::default(),
        }
    }

    /// Apply a post-data-cap throttle at `rate_bps`, using the discipline the
    /// paper found on each technology: shaping on 3G, policing on LTE.
    pub fn with_throttle(mut self, rate_bps: f64) -> BearerConfig {
        let cfg = match self.rrc.tech() {
            RadioTech::Umts3g => ShaperConfig::shaping(rate_bps),
            RadioTech::Lte => ShaperConfig::policing(rate_bps),
        };
        self.limiter_dl = Some(cfg.clone());
        self.limiter_ul = Some(cfg);
        self
    }

    /// The radio technology.
    pub fn tech(&self) -> RadioTech {
        self.rrc.tech()
    }
}

/// Jitter fraction on the one-way core latency.
const CORE_JITTER: f64 = 0.15;

/// A live cellular attachment.
pub struct CellBearer {
    cfg: BearerConfig,
    rrc: RrcMachine,
    ul: RlcChannel,
    dl: RlcChannel,
    to_internet: Pipe,
    from_internet: Pipe,
    limiter_dl: Option<RateLimiter>,
    limiter_ul: Option<RateLimiter>,
    /// Diagnostic logger (QxDM substitute). Public so the collector can
    /// take the logs at the end of an experiment.
    pub qxdm: Qxdm,
    /// Scratch buffers reused by every tick.
    pkts: Vec<IpPacket>,
    exits: Vec<(SimTime, IpPacket)>,
    pdus: Vec<(SimTime, PduEvent)>,
    statuses: Vec<(SimTime, StatusRecord)>,
}

impl CellBearer {
    /// Bring up a bearer.
    pub fn new(cfg: BearerConfig, rng: &mut DetRng) -> CellBearer {
        let core_cfg = LinkConfig {
            bandwidth_bps: 1e9, // core is never the bottleneck
            latency: cfg.core_latency,
            jitter_frac: CORE_JITTER,
            loss: 0.0,
            queue_bytes: 0,
        };
        CellBearer {
            rrc: RrcMachine::new(cfg.rrc.clone()),
            ul: RlcChannel::new(cfg.rlc_ul.clone(), Direction::Uplink, rng.fork(1)),
            dl: RlcChannel::new(cfg.rlc_dl.clone(), Direction::Downlink, rng.fork(2)),
            to_internet: Pipe::new(core_cfg.clone(), rng.fork(3)),
            from_internet: Pipe::new(core_cfg, rng.fork(4)),
            limiter_dl: cfg.limiter_dl.clone().map(RateLimiter::new),
            limiter_ul: cfg.limiter_ul.clone().map(RateLimiter::new),
            qxdm: Qxdm::new(cfg.qxdm.clone(), rng.fork(5)),
            cfg,
            pkts: Vec::new(),
            exits: Vec::new(),
            pdus: Vec::new(),
            statuses: Vec::new(),
        }
    }

    /// Current RRC state.
    pub fn rrc_state(&self) -> RrcState {
        self.rrc.state()
    }

    /// The radio technology currently attached.
    pub fn tech(&self) -> RadioTech {
        self.cfg.tech()
    }

    /// Forced inter-RAT handover: re-attach under `new` (the other
    /// technology's bearer parameters) at `now`. The RRC machine maps its
    /// state across (connected stays connected, idle stays idle, a pending
    /// promotion is lost) and keeps its transition log; both RLC channels
    /// are rebuilt, so PDUs and packets in flight over the air are lost —
    /// handover loss, which TCP recovers by retransmission. The core pipes
    /// and the QxDM logger survive the switch.
    pub fn switch_tech(&mut self, new: BearerConfig, rng: &mut DetRng, now: SimTime) {
        self.rrc.switch_tech(new.rrc.clone(), now);
        self.ul = RlcChannel::new(new.rlc_ul.clone(), Direction::Uplink, rng.fork(6));
        self.dl = RlcChannel::new(new.rlc_dl.clone(), Direction::Downlink, rng.fork(7));
        self.limiter_dl = new.limiter_dl.clone().map(RateLimiter::new);
        self.limiter_ul = new.limiter_ul.clone().map(RateLimiter::new);
        self.cfg = new;
    }

    /// Inject RRC promotion failures (see [`RrcMachine::inject_promotion_failures`]).
    pub fn inject_promotion_failures(&mut self, count: u32, penalty: SimDuration) {
        self.rrc.inject_promotion_failures(count, penalty);
    }

    /// Inject an RLC retransmission storm on both directions (see
    /// [`RlcChannel::inject_storm`]).
    pub fn inject_rlc_storm(&mut self, from: SimTime, until: SimTime, loss: f64) {
        self.ul.inject_storm(from, until, loss);
        self.dl.inject_storm(from, until, loss);
    }

    /// Inject a total outage on the core path (both directions) in
    /// `[from, until)`.
    pub fn add_outage(&mut self, from: SimTime, until: SimTime) {
        self.to_internet.add_outage(from, until);
        self.from_internet.add_outage(from, until);
    }

    /// Inject a core-path latency spike (both directions) in `[from, until)`.
    pub fn add_latency_spike(&mut self, from: SimTime, until: SimTime, extra: SimDuration) {
        self.to_internet.add_latency_spike(from, until, extra);
        self.from_internet.add_latency_spike(from, until, extra);
    }

    /// Inject Gilbert–Elliott burst loss on the core path (both
    /// directions) in `[from, until)`.
    pub fn set_burst_loss(
        &mut self,
        from: SimTime,
        until: SimTime,
        model: netstack::GilbertElliott,
    ) {
        self.to_internet.set_burst_loss(from, until, model);
        self.from_internet.set_burst_loss(from, until, model);
    }

    /// Phone → network.
    pub fn send_uplink(&mut self, pkt: IpPacket, now: SimTime) {
        self.ul.enqueue(pkt, now);
        let buffered = self.ul.queued_bytes().min(u32::MAX as u64) as u32;
        self.rrc.on_data(buffered, now);
    }

    /// Network → phone (called by the internet side).
    pub fn send_downlink(&mut self, pkt: IpPacket, now: SimTime) {
        self.from_internet.send(pkt, now);
    }

    /// Append to `out` the packets that have fully traversed the downlink,
    /// ready for the phone.
    pub fn recv_for_phone(&mut self, now: SimTime, out: &mut Vec<IpPacket>) {
        self.dl.take_exits(now, &mut self.exits);
        out.extend(self.exits.drain(..).map(|(_, p)| p));
    }

    /// Append to `out` the packets that have fully traversed the uplink,
    /// ready for the internet.
    pub fn recv_for_internet(&mut self, now: SimTime, out: &mut Vec<IpPacket>) {
        self.to_internet.deliver(now, out);
    }

    fn rate_for(&self, dir: Direction) -> f64 {
        let full = match dir {
            Direction::Uplink => self.cfg.ul_rate_bps,
            Direction::Downlink => self.cfg.dl_rate_bps,
        };
        match self.rrc.state() {
            RrcState::Fach => self.cfg.fach_rate_bps,
            _ => full,
        }
    }

    /// Advance the bearer's machinery to `now`. A tick before
    /// [`CellBearer::next_wake`] returns at once, so the bearer runs only
    /// at its own wakes, and no timing depends on how often its owner
    /// ticks it:
    /// - queued data refreshes the RRC inactivity timer at each of the
    ///   bearer's own ticks, and a backlog drains only inside one of them;
    /// - the rate limiters refill only at the bearer's own wakes, so each
    ///   refill rounds its token count at the same instants however the
    ///   owner steps.
    pub fn tick(&mut self, now: SimTime) {
        if self.next_wake().is_some_and(|w| w <= now) {
            self.step(now);
        }
    }

    /// The body of [`CellBearer::tick`], for an instant at or after the
    /// bearer's wake.
    fn step(&mut self, now: SimTime) {
        self.rrc.tick(now);

        // Downlink arrivals from the core enter the limiter, then RLC.
        let mut arrivals = core::mem::take(&mut self.pkts);
        self.from_internet.deliver(now, &mut arrivals);
        for pkt in arrivals.drain(..) {
            let passed = match &mut self.limiter_dl {
                Some(rl) => rl.offer(pkt, now),
                None => Some(pkt),
            };
            if let Some(p) = passed {
                self.dl.enqueue(p, now);
                let buffered = self.dl.queued_bytes().min(u32::MAX as u64) as u32;
                self.rrc.on_data(buffered, now);
            }
        }
        if let Some(rl) = &mut self.limiter_dl {
            rl.take_ready(now, &mut arrivals);
            for p in arrivals.drain(..) {
                self.dl.enqueue(p, now);
                let buffered = self.dl.queued_bytes().min(u32::MAX as u64) as u32;
                self.rrc.on_data(buffered, now);
            }
        }

        // Transmission keeps the connection active (prevents mid-burst
        // demotion).
        if self.ul.has_backlog() || self.dl.has_backlog() {
            self.rrc.on_data(0, now);
        }

        let can_tx = self.rrc.can_transmit();
        let ul_rate = self.rate_for(Direction::Uplink);
        let dl_rate = self.rate_for(Direction::Downlink);
        self.ul.poll(now, can_tx, ul_rate);
        self.dl.poll(now, can_tx, dl_rate);

        // Uplink exits go through the (optional) limiter into the core.
        self.ul.take_exits(now, &mut self.exits);
        for (at, pkt) in self.exits.drain(..) {
            let passed = match &mut self.limiter_ul {
                Some(rl) => rl.offer(pkt, at),
                None => Some(pkt),
            };
            if let Some(p) = passed {
                self.to_internet.send(p, at.max(now));
            }
        }
        if let Some(rl) = &mut self.limiter_ul {
            rl.take_ready(now, &mut arrivals);
            for p in arrivals.drain(..) {
                self.to_internet.send(p, now);
            }
        }
        self.pkts = arrivals;

        // Feed the diagnostic logger, merging both directions in time order.
        self.ul.take_pdu_events(now, &mut self.pdus);
        self.dl.take_pdu_events(now, &mut self.pdus);
        self.pdus.sort_by_key(|(at, _)| *at);
        for (at, ev) in self.pdus.drain(..) {
            self.qxdm.observe_pdu(at, &ev);
        }
        self.ul.take_status_events(now, &mut self.statuses);
        self.dl.take_status_events(now, &mut self.statuses);
        self.statuses.sort_by_key(|(at, _)| *at);
        for (at, ev) in self.statuses.drain(..) {
            self.qxdm.observe_status(at, &ev);
        }
        for (at, tr) in self.rrc.take_transitions() {
            self.qxdm.observe_rrc(at, tr);
        }
    }

    /// Tick at `now`, then at each later wake of the bearer's own up to
    /// `limit`, and return the instant of the last tick. Each later instant
    /// is one of the bearer's wakes, so it runs without
    /// [`CellBearer::tick`]'s check, and is reported to the sim-time
    /// watchdog. The run stops early when the next wake is at or before the
    /// instant just ran; that includes every instant where a packet is due
    /// to leave (a downlink exit toward the phone or a core-pipe arrival
    /// toward the internet), since only the owner's takes clear those.
    ///
    /// The owner runs the bearer this way only when nothing else in its
    /// world has work before `limit`: every instant in between then costs
    /// the bearer's own tick and nothing else, exactly as stepping the
    /// world at each of them would.
    pub fn run(&mut self, mut now: SimTime, limit: SimTime) -> SimTime {
        self.tick(now);
        while now < limit {
            match self.next_wake() {
                Some(wake) if wake > now && wake <= limit => {
                    simcore::watchdog::observe(wake);
                    now = wake;
                    self.step(now);
                }
                _ => break,
            }
        }
        now
    }

    /// Earliest instant the bearer has work.
    pub fn next_wake(&self) -> Option<SimTime> {
        let can_tx = self.rrc.can_transmit();
        let mut wake = self.rrc.next_wake();
        wake = earlier(wake, self.ul.next_wake(can_tx));
        wake = earlier(wake, self.dl.next_wake(can_tx));
        wake = earlier(wake, self.to_internet.next_wake());
        wake = earlier(wake, self.from_internet.next_wake());
        if let Some(rl) = &self.limiter_dl {
            wake = earlier(wake, rl.next_wake());
        }
        if let Some(rl) = &self.limiter_ul {
            wake = earlier(wake, rl.next_wake());
        }
        // Pending backlog that promotion will unblock is covered by the RRC
        // promotion wake time; backlog with an idle machine must trigger
        // on_data (handled in tick) — wake immediately if so.
        if !can_tx && !self.rrc.promoting() && (self.ul.has_backlog() || self.dl.has_backlog()) {
            wake = earlier(wake, Some(SimTime::ZERO));
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netstack::{IpAddr, Proto, SocketAddr, TcpFlags, TcpHeader};

    fn pkt(id: u64, payload: u32) -> IpPacket {
        IpPacket {
            id,
            src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
            dst: SocketAddr::new(IpAddr::new(31, 13, 0, 2), 443),
            proto: Proto::Tcp,
            tcp: Some(TcpHeader {
                seq: 1,
                ack: 0,
                flags: TcpFlags::default(),
            }),
            payload_len: payload,
            udp_payload: None,
            markers: Vec::new(),
        }
    }

    fn run(bearer: &mut CellBearer, until: SimTime) -> Vec<(SimTime, IpPacket)> {
        let mut out = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..1_000_000 {
            bearer.tick(now);
            let mut crossed = Vec::new();
            bearer.recv_for_internet(now, &mut crossed);
            out.extend(crossed.into_iter().map(|p| (now, p)));
            match bearer.next_wake() {
                Some(w) if w <= now => continue,
                Some(w) if w <= until => now = w,
                _ => break,
            }
        }
        out
    }

    #[test]
    fn uplink_packet_crosses_after_promotion() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut b = CellBearer::new(BearerConfig::umts_3g(), &mut rng);
        assert_eq!(b.rrc_state(), RrcState::Pch);
        b.send_uplink(pkt(1, 1000), SimTime::ZERO);
        let out = run(&mut b, SimTime::from_secs(30));
        assert_eq!(out.len(), 1);
        // Promotion (2 s for a large buffer) dominates the delivery time.
        let at = out[0].0;
        assert!(at >= SimTime::from_secs(2), "delivered at {at}");
        assert!(at < SimTime::from_secs(4), "delivered at {at}");
        // The machine went through DCH and, by 30 s of inactivity, demoted
        // all the way back to PCH.
        let states: Vec<RrcState> = b.qxdm.log.rrc.iter().map(|(_, tr)| tr.to).collect();
        assert!(states.contains(&RrcState::Dch), "states {states:?}");
        assert_eq!(b.rrc_state(), RrcState::Pch);
    }

    /// Drive a bearer the way a world does when nothing else is due: each
    /// step ends where the bearer stopped, then takes the packets leaving
    /// toward the phone and the internet. With `private`, a step runs the
    /// bearer's own later wakes; without, it ticks one instant.
    fn drive(b: &mut CellBearer, until: SimTime, private: bool) -> (Vec<(SimTime, u64)>, usize) {
        let mut out = Vec::new();
        let mut steps = 0;
        let mut now = SimTime::ZERO;
        loop {
            steps += 1;
            now = b.run(now, if private { until } else { now });
            let mut left = Vec::new();
            b.recv_for_phone(now, &mut left);
            b.recv_for_internet(now, &mut left);
            out.extend(left.into_iter().map(|p| (now, p.id)));
            match b.next_wake() {
                Some(w) if w <= until => now = now.max(w),
                _ => break,
            }
        }
        (out, steps)
    }

    #[test]
    fn private_runs_match_ticking_every_instant() {
        for cfg in [
            BearerConfig::umts_3g(),
            BearerConfig::lte().with_throttle(900e3),
        ] {
            let make = || {
                let mut rng = DetRng::seed_from_u64(5);
                let mut b = CellBearer::new(cfg.clone(), &mut rng);
                for i in 0..20 {
                    b.send_uplink(pkt(i, 1000), SimTime::ZERO);
                    b.send_downlink(pkt(100 + i, 1400), SimTime::ZERO);
                }
                b
            };
            let until = SimTime::from_secs(30);
            let (mut private, mut stepped) = (make(), make());
            let (out, private_steps) = drive(&mut private, until, true);
            let (want, steps) = drive(&mut stepped, until, false);
            assert!(out.len() >= 20, "{} packets left", out.len());
            assert_eq!(out, want);
            assert!(private.qxdm.log == stepped.qxdm.log);
            assert!(private.qxdm.truth == stepped.qxdm.truth);
            assert!(
                private_steps * 4 < steps,
                "{private_steps} vs {steps} steps"
            );
        }
    }

    #[test]
    fn lte_promotion_is_much_faster_than_3g() {
        let mut rng = DetRng::seed_from_u64(1);
        let mut b3g = CellBearer::new(BearerConfig::umts_3g(), &mut rng);
        let mut blte = CellBearer::new(BearerConfig::lte(), &mut rng);
        b3g.send_uplink(pkt(1, 1000), SimTime::ZERO);
        blte.send_uplink(pkt(1, 1000), SimTime::ZERO);
        let t3g = run(&mut b3g, SimTime::from_secs(30))[0].0;
        let tlte = run(&mut blte, SimTime::from_secs(30))[0].0;
        assert!(tlte < t3g, "lte {tlte} vs 3g {t3g}");
        assert!(tlte < SimTime::from_millis(600), "lte {tlte}");
    }

    #[test]
    fn downlink_reaches_phone_and_logs_pdus() {
        let mut rng = DetRng::seed_from_u64(2);
        let mut b = CellBearer::new(BearerConfig::lte(), &mut rng);
        b.send_downlink(pkt(9, 1400), SimTime::ZERO);
        let mut now = SimTime::ZERO;
        let mut got = Vec::new();
        for _ in 0..100_000 {
            b.tick(now);
            b.recv_for_phone(now, &mut got);
            match b.next_wake() {
                Some(w) if w <= now => continue,
                Some(w) if w <= SimTime::from_secs(10) => now = w,
                _ => break,
            }
        }
        assert_eq!(got.len(), 1);
        assert!(!b.qxdm.truth.is_empty());
        assert!(b
            .qxdm
            .truth
            .iter()
            .any(|(_, e)| e.pdu.dir == Direction::Downlink));
        assert!(!b.qxdm.log.rrc.is_empty());
    }

    /// QxDM logs each PDU's truth record unchanged or not at all: the log
    /// is the truth's `(at, record)` pairs, in order, minus lost records.
    #[test]
    fn qxdm_log_is_the_truth_records_minus_lost_ones() {
        for cfg in [BearerConfig::umts_3g(), BearerConfig::lte()] {
            let mut rng = DetRng::seed_from_u64(11);
            let mut b = CellBearer::new(cfg, &mut rng);
            for i in 0..40 {
                b.send_uplink(pkt(i, 1000), SimTime::ZERO);
                b.send_downlink(pkt(100 + i, 1400), SimTime::ZERO);
            }
            drive(&mut b, SimTime::from_secs(30), true);
            let truth: Vec<_> = b.qxdm.truth.iter().map(|(at, ev)| (at, ev.pdu)).collect();
            let log: Vec<_> = b.qxdm.log.pdus.iter().map(|(at, r)| (at, *r)).collect();
            let mut rest = truth.iter();
            for rec in &log {
                assert!(
                    rest.any(|t| t == rec),
                    "{rec:?} is not a later truth record"
                );
            }
            for dir in [Direction::Uplink, Direction::Downlink] {
                assert!(log.iter().any(|(_, r)| r.dir == dir), "no {dir:?} records");
            }
            assert!(log.len() < truth.len(), "no record was lost");
        }
    }

    #[test]
    fn throttled_bearer_slows_bulk_downlink() {
        let mut rng = DetRng::seed_from_u64(3);
        let mut free = CellBearer::new(BearerConfig::lte(), &mut rng);
        let mut throttled = CellBearer::new(BearerConfig::lte().with_throttle(256e3), &mut rng);
        let finish = |b: &mut CellBearer| -> (usize, SimTime) {
            for i in 0..100 {
                b.send_downlink(pkt(i, 1400), SimTime::ZERO);
            }
            let mut now = SimTime::ZERO;
            let mut n = 0;
            let mut last = SimTime::ZERO;
            for _ in 0..1_000_000 {
                b.tick(now);
                let mut got = Vec::new();
                b.recv_for_phone(now, &mut got);
                if !got.is_empty() {
                    n += got.len();
                    last = now;
                }
                match b.next_wake() {
                    Some(w) if w <= now => continue,
                    Some(w) if w <= SimTime::from_secs(120) => now = w,
                    _ => break,
                }
            }
            (n, last)
        };
        let (n_free, _t_free) = finish(&mut free);
        let (n_thr, _t_thr) = finish(&mut throttled);
        assert_eq!(n_free, 100);
        // Policing drops the over-bucket packets outright (here there is no
        // TCP above the bearer to retransmit them); only the bucket's burst
        // allowance plus refill gets through.
        assert!(n_thr < n_free, "throttled delivered {n_thr}");
        assert!(throttled.limiter_dl.as_ref().unwrap().stats.dropped > 0);
    }

    #[test]
    fn rlc_storm_multiplies_retransmissions() {
        let send_all = |storm: bool| -> u64 {
            let mut rng = DetRng::seed_from_u64(7);
            let mut b = CellBearer::new(BearerConfig::umts_3g(), &mut rng);
            if storm {
                b.inject_rlc_storm(SimTime::ZERO, SimTime::from_secs(60), 0.4);
            }
            for i in 0..20 {
                b.send_uplink(pkt(i, 1000), SimTime::ZERO);
            }
            run(&mut b, SimTime::from_secs(60));
            b.ul.pdus_transmitted
        };
        let clean = send_all(false);
        let stormy = send_all(true);
        assert!(
            stormy as f64 > clean as f64 * 1.3,
            "storm {stormy} vs clean {clean}"
        );
    }

    #[test]
    fn tech_switch_mid_flow_carries_traffic_on_the_new_rat() {
        let mut rng = DetRng::seed_from_u64(8);
        let mut b = CellBearer::new(BearerConfig::lte(), &mut rng);
        b.send_uplink(pkt(1, 1000), SimTime::ZERO);
        let out = run(&mut b, SimTime::from_secs(2));
        assert_eq!(out.len(), 1, "first packet crosses on LTE");
        let mut srng = DetRng::seed_from_u64(9);
        b.switch_tech(BearerConfig::umts_3g(), &mut srng, SimTime::from_secs(2));
        assert_eq!(b.tech(), RadioTech::Umts3g);
        // The bearer is still usable after the switch: more uplink data
        // crosses under the 3G machine.
        b.send_uplink(pkt(2, 1000), SimTime::from_secs(2));
        let mut now = SimTime::from_secs(2);
        let mut crossed = Vec::new();
        for _ in 0..100_000 {
            b.tick(now);
            b.recv_for_internet(now, &mut crossed);
            match b.next_wake() {
                Some(w) if w <= now => continue,
                Some(w) if w <= SimTime::from_secs(30) => now = w,
                _ => break,
            }
        }
        assert_eq!(crossed.len(), 1);
        // The inter-RAT jump is visible in the RRC log.
        let jumps: Vec<_> = b
            .qxdm
            .log
            .rrc
            .iter()
            .filter(|(_, tr)| {
                let lte = |s: RrcState| {
                    matches!(
                        s,
                        RrcState::LteContinuous
                            | RrcState::LteShortDrx
                            | RrcState::LteLongDrx
                            | RrcState::LteIdle
                    )
                };
                lte(tr.from) && !lte(tr.to)
            })
            .collect();
        assert!(!jumps.is_empty(), "no inter-RAT transition logged");
    }

    #[test]
    fn promotion_failures_stretch_first_delivery() {
        let deliver_at = |failures: u32| -> SimTime {
            let mut rng = DetRng::seed_from_u64(10);
            let mut b = CellBearer::new(BearerConfig::umts_3g(), &mut rng);
            b.inject_promotion_failures(failures, SimDuration::from_millis(1500));
            b.send_uplink(pkt(1, 1000), SimTime::ZERO);
            run(&mut b, SimTime::from_secs(30))[0].0
        };
        let clean = deliver_at(0);
        let faulty = deliver_at(2);
        assert!(
            faulty >= clean + SimDuration::from_secs(3) - SimDuration::from_millis(1),
            "clean {clean} faulty {faulty}"
        );
    }

    #[test]
    fn fach_rate_applies_to_small_transfers() {
        let mut rng = DetRng::seed_from_u64(4);
        let mut b = CellBearer::new(BearerConfig::umts_3g(), &mut rng);
        // Small packet promotes to FACH only.
        b.send_uplink(pkt(1, 80), SimTime::ZERO);
        let out = run(&mut b, SimTime::from_secs(30));
        assert_eq!(out.len(), 1);
        // The small buffer promoted to FACH only, never DCH.
        let states: Vec<RrcState> = b.qxdm.log.rrc.iter().map(|(_, tr)| tr.to).collect();
        assert!(states.contains(&RrcState::Fach), "states {states:?}");
        assert!(!states.contains(&RrcState::Dch), "states {states:?}");
    }
}
