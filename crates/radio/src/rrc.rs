//! RRC (Radio Resource Control) state machines.
//!
//! Implements the 3G and LTE control-plane machines of Fig. 1 of the paper:
//!
//! * **3G**: DCH (high power, dedicated channel) / FACH (medium power,
//!   shared low-bandwidth channel) / PCH (low power, no data plane).
//!   Promotion happens on data arrival — to FACH for small buffers, to DCH
//!   when the buffered bytes exceed a threshold — and demotion happens on
//!   inactivity timers.
//! * **LTE**: CONNECTED (continuous reception, then short DRX, then long DRX
//!   as inactivity grows) / IDLE_CAMPED. Promotion IDLE→CONNECTED is much
//!   faster than 3G's PCH→DCH.
//!
//! All timers and rates live in config structs so that §7.7's "simplified
//! 3G state machine" (direct PCH→DCH promotion, no FACH detour) and
//! different carriers are configurations rather than code forks.
//!
//! Default timer values follow the measurements reported in the paper's
//! citations (\[22\] Qian et al. for 3G, \[34\] Huang et al. for LTE).

use simcore::{earlier, SimDuration, SimTime};

/// A radio technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioTech {
    /// UMTS/HSPA ("3G").
    Umts3g,
    /// LTE ("4G").
    Lte,
}

/// Unified RRC state label across both technologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RrcState {
    /// 3G dedicated channel: high power, full bandwidth.
    Dch,
    /// 3G forward access channel: medium power, shared low bandwidth.
    Fach,
    /// 3G paging channel: low power, no data transfer.
    Pch,
    /// LTE connected, continuous reception: high power, full bandwidth.
    LteContinuous,
    /// LTE connected, short DRX cycles.
    LteShortDrx,
    /// LTE connected, long DRX cycles.
    LteLongDrx,
    /// LTE idle/camped: low power, no data transfer.
    LteIdle,
}

impl RrcState {
    /// True when the data plane can carry traffic in this state.
    pub fn can_transmit(self) -> bool {
        !matches!(self, RrcState::Pch | RrcState::LteIdle)
    }

    /// True for the high-power "connected" family of states (used for tail
    /// energy accounting: everything between last data and demotion to a
    /// low-power state counts as tail).
    pub fn is_high_power(self) -> bool {
        self.can_transmit()
    }
}

/// 3G state machine parameters.
#[derive(Debug, Clone)]
pub struct Rrc3gConfig {
    /// When false, the machine has no FACH state: every promotion goes
    /// straight to DCH and DCH demotes directly to PCH (§7.7's simplified
    /// design).
    pub fach_enabled: bool,
    /// PCH→DCH promotion delay (large buffer, or FACH disabled).
    pub pch_to_dch: SimDuration,
    /// PCH→FACH promotion delay (small buffer).
    pub pch_to_fach: SimDuration,
    /// FACH→DCH promotion delay (buffer grew past the threshold).
    pub fach_to_dch: SimDuration,
    /// Inactivity timer demoting DCH→FACH (or DCH→PCH when FACH disabled).
    pub dch_inactivity: SimDuration,
    /// Inactivity timer demoting FACH→PCH.
    pub fach_inactivity: SimDuration,
    /// Buffered bytes above which promotion targets DCH rather than FACH.
    pub fach_buffer_threshold: u32,
}

impl Default for Rrc3gConfig {
    fn default() -> Self {
        Rrc3gConfig {
            fach_enabled: true,
            pch_to_dch: SimDuration::from_millis(2000),
            pch_to_fach: SimDuration::from_millis(1400),
            fach_to_dch: SimDuration::from_millis(1000),
            dch_inactivity: SimDuration::from_secs(5),
            fach_inactivity: SimDuration::from_secs(12),
            fach_buffer_threshold: 512,
        }
    }
}

impl Rrc3gConfig {
    /// The simplified machine of §7.7: no FACH detour.
    pub fn simplified() -> Self {
        Rrc3gConfig {
            fach_enabled: false,
            ..Default::default()
        }
    }
}

/// LTE state machine parameters.
#[derive(Debug, Clone)]
pub struct RrcLteConfig {
    /// IDLE→CONNECTED promotion delay.
    pub idle_to_connected: SimDuration,
    /// Inactivity before continuous reception drops to short DRX.
    pub continuous_inactivity: SimDuration,
    /// Additional inactivity before short DRX drops to long DRX.
    pub short_drx_inactivity: SimDuration,
    /// Additional inactivity before long DRX releases to IDLE (the "tail").
    pub long_drx_inactivity: SimDuration,
}

impl Default for RrcLteConfig {
    fn default() -> Self {
        RrcLteConfig {
            idle_to_connected: SimDuration::from_millis(260),
            continuous_inactivity: SimDuration::from_millis(100),
            short_drx_inactivity: SimDuration::from_millis(400),
            long_drx_inactivity: SimDuration::from_millis(11_000),
        }
    }
}

/// One logged state transition (consumed by the QxDM-style logger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RrcTransition {
    /// State before.
    pub from: RrcState,
    /// State after.
    pub to: RrcState,
}

/// Either technology's parameters.
#[derive(Debug, Clone)]
pub enum RrcConfig {
    /// 3G parameters.
    Umts3g(Rrc3gConfig),
    /// LTE parameters.
    Lte(RrcLteConfig),
}

impl RrcConfig {
    /// The technology this config describes.
    pub fn tech(&self) -> RadioTech {
        match self {
            RrcConfig::Umts3g(_) => RadioTech::Umts3g,
            RrcConfig::Lte(_) => RadioTech::Lte,
        }
    }
}

/// The live RRC state machine.
#[derive(Debug)]
pub struct RrcMachine {
    cfg: RrcConfig,
    state: RrcState,
    /// In-progress promotion: `(target, completes_at)`. No data moves while
    /// a promotion is pending — this is exactly the promotion delay users
    /// experience at the start of a transfer.
    promotion: Option<(RrcState, SimTime)>,
    last_activity: SimTime,
    transitions: Vec<(SimTime, RrcTransition)>,
    /// Injected fault: the next `promo_failures` promotions fail at their
    /// completion instant and restart after `promo_penalty` (an RACH
    /// failure / RRC connection reject with retry, as observed in the wild
    /// by control-plane studies).
    promo_failures: u32,
    promo_penalty: SimDuration,
}

impl RrcMachine {
    /// New machine resting in the technology's low-power state.
    pub fn new(cfg: RrcConfig) -> RrcMachine {
        let state = match cfg.tech() {
            RadioTech::Umts3g => RrcState::Pch,
            RadioTech::Lte => RrcState::LteIdle,
        };
        RrcMachine {
            cfg,
            state,
            promotion: None,
            last_activity: SimTime::ZERO,
            transitions: Vec::new(),
            promo_failures: 0,
            promo_penalty: SimDuration::ZERO,
        }
    }

    /// Inject `count` promotion failures: each of the next `count`
    /// promotions, instead of completing, restarts and completes `penalty`
    /// later. Deterministic — no randomness involved.
    pub fn inject_promotion_failures(&mut self, count: u32, penalty: SimDuration) {
        self.promo_failures = count;
        self.promo_penalty = penalty;
    }

    /// Switch radio technology mid-flow (a forced 3G↔LTE handover). A
    /// transmit-capable state maps to the new technology's full-rate
    /// connected state (the handover carries the bearer across); a
    /// low-power or mid-promotion state maps to the new idle state and any
    /// pending promotion is lost. The transition is recorded like any
    /// other, so the QxDM log shows the inter-RAT jump.
    pub fn switch_tech(&mut self, cfg: RrcConfig, now: SimTime) {
        if cfg.tech() == self.tech() {
            self.cfg = cfg;
            return;
        }
        let to = if self.promotion.is_none() && self.state.can_transmit() {
            match cfg.tech() {
                RadioTech::Umts3g => RrcState::Dch,
                RadioTech::Lte => RrcState::LteContinuous,
            }
        } else {
            match cfg.tech() {
                RadioTech::Umts3g => RrcState::Pch,
                RadioTech::Lte => RrcState::LteIdle,
            }
        };
        self.promotion = None;
        self.cfg = cfg;
        self.set_state(to, now);
        self.last_activity = now;
    }

    /// The technology.
    pub fn tech(&self) -> RadioTech {
        self.cfg.tech()
    }

    /// Current state.
    pub fn state(&self) -> RrcState {
        self.state
    }

    /// True when a promotion is pending (data must wait).
    pub fn promoting(&self) -> bool {
        self.promotion.is_some()
    }

    /// True when the data plane can move bytes right now.
    pub fn can_transmit(&self) -> bool {
        self.promotion.is_none() && self.state.can_transmit()
    }

    /// Notify the machine that `buffered_bytes` are waiting to move (in
    /// either direction — downlink data triggers paging and promotion too).
    pub fn on_data(&mut self, buffered_bytes: u32, now: SimTime) {
        self.last_activity = now;
        match (&self.cfg, self.state) {
            (RrcConfig::Umts3g(cfg), RrcState::Pch) => {
                if self.promotion.is_none() {
                    let (target, delay) =
                        if !cfg.fach_enabled || buffered_bytes > cfg.fach_buffer_threshold {
                            (RrcState::Dch, cfg.pch_to_dch)
                        } else {
                            (RrcState::Fach, cfg.pch_to_fach)
                        };
                    self.promotion = Some((target, now + delay));
                }
            }
            (RrcConfig::Umts3g(cfg), RrcState::Fach) => {
                if self.promotion.is_none() && buffered_bytes > cfg.fach_buffer_threshold {
                    self.promotion = Some((RrcState::Dch, now + cfg.fach_to_dch));
                }
            }
            (RrcConfig::Lte(cfg), RrcState::LteIdle) => {
                if self.promotion.is_none() {
                    self.promotion = Some((RrcState::LteContinuous, now + cfg.idle_to_connected));
                }
            }
            (RrcConfig::Lte(_), RrcState::LteShortDrx | RrcState::LteLongDrx) => {
                // Activity in DRX snaps back to continuous reception
                // immediately (sub-frame scale; negligible at our resolution).
                self.set_state(RrcState::LteContinuous, now);
            }
            _ => {}
        }
    }

    fn set_state(&mut self, to: RrcState, now: SimTime) {
        if self.state != to {
            self.transitions.push((
                now,
                RrcTransition {
                    from: self.state,
                    to,
                },
            ));
            self.state = to;
        }
    }

    /// Advance timers: complete due promotions, fire due demotions.
    pub fn tick(&mut self, now: SimTime) {
        while let Some((target, at)) = self.promotion {
            if now < at {
                break;
            }
            if self.promo_failures > 0 {
                // Injected failure: the promotion attempt is rejected at
                // its completion instant and restarts after the penalty.
                self.promo_failures -= 1;
                self.promotion = Some((target, at + self.promo_penalty));
                continue;
            }
            self.promotion = None;
            self.set_state(target, at);
            self.last_activity = at;
        }
        // Demotions (may cascade through several states if `tick` is called
        // after a long idle gap).
        loop {
            let Some((to, at)) = self.pending_demotion() else {
                break;
            };
            if now < at {
                break;
            }
            self.set_state(to, at);
            self.last_activity = at;
        }
    }

    /// The next demotion this machine will perform if no data arrives:
    /// `(target_state, fire_time)`.
    fn pending_demotion(&self) -> Option<(RrcState, SimTime)> {
        if self.promotion.is_some() {
            return None;
        }
        match (&self.cfg, self.state) {
            (RrcConfig::Umts3g(cfg), RrcState::Dch) => {
                let to = if cfg.fach_enabled {
                    RrcState::Fach
                } else {
                    RrcState::Pch
                };
                Some((to, self.last_activity + cfg.dch_inactivity))
            }
            (RrcConfig::Umts3g(cfg), RrcState::Fach) => {
                Some((RrcState::Pch, self.last_activity + cfg.fach_inactivity))
            }
            (RrcConfig::Lte(cfg), RrcState::LteContinuous) => Some((
                RrcState::LteShortDrx,
                self.last_activity + cfg.continuous_inactivity,
            )),
            (RrcConfig::Lte(cfg), RrcState::LteShortDrx) => Some((
                RrcState::LteLongDrx,
                self.last_activity + cfg.short_drx_inactivity,
            )),
            (RrcConfig::Lte(cfg), RrcState::LteLongDrx) => Some((
                RrcState::LteIdle,
                self.last_activity + cfg.long_drx_inactivity,
            )),
            _ => None,
        }
    }

    /// Earliest instant the machine changes state on its own.
    pub fn next_wake(&self) -> Option<SimTime> {
        let promo = self.promotion.map(|(_, at)| at);
        let demo = self.pending_demotion().map(|(_, at)| at);
        earlier(promo, demo)
    }

    /// Drain state transitions recorded since the last call.
    pub fn take_transitions(&mut self) -> Vec<(SimTime, RrcTransition)> {
        core::mem::take(&mut self.transitions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn starts_in_low_power() {
        let m3g = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        assert_eq!(m3g.state(), RrcState::Pch);
        assert!(!m3g.can_transmit());
        let mlte = RrcMachine::new(RrcConfig::Lte(RrcLteConfig::default()));
        assert_eq!(mlte.state(), RrcState::LteIdle);
    }

    #[test]
    fn small_buffer_promotes_to_fach() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(100, t(0));
        assert!(m.promoting());
        assert!(!m.can_transmit());
        m.tick(t(1399));
        assert_eq!(m.state(), RrcState::Pch);
        m.tick(t(1400));
        assert_eq!(m.state(), RrcState::Fach);
        assert!(m.can_transmit());
    }

    #[test]
    fn large_buffer_promotes_to_dch() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(10_000, t(0));
        m.tick(t(2000));
        assert_eq!(m.state(), RrcState::Dch);
    }

    #[test]
    fn fach_promotes_to_dch_when_buffer_grows() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(100, t(0));
        m.tick(t(1400));
        assert_eq!(m.state(), RrcState::Fach);
        m.on_data(10_000, t(1700));
        m.tick(t(2700));
        assert_eq!(m.state(), RrcState::Dch);
    }

    #[test]
    fn inactivity_demotes_dch_to_fach_to_pch() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(10_000, t(0));
        m.tick(t(2000)); // DCH, last_activity = 2000
        m.tick(t(7000)); // DCH inactivity (5 s) fires
        assert_eq!(m.state(), RrcState::Fach);
        m.tick(t(19_000)); // FACH inactivity (12 s) fires
        assert_eq!(m.state(), RrcState::Pch);
    }

    #[test]
    fn long_gap_cascades_demotions_in_one_tick() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(10_000, t(0));
        m.tick(t(2000));
        m.tick(t(60_000));
        assert_eq!(m.state(), RrcState::Pch);
        let trans = m.take_transitions();
        let seq: Vec<(u64, RrcState)> = trans
            .iter()
            .map(|(at, tr)| (at.as_millis(), tr.to))
            .collect();
        assert_eq!(
            seq,
            vec![
                (2000, RrcState::Dch),
                (7000, RrcState::Fach),
                (19_000, RrcState::Pch)
            ]
        );
    }

    #[test]
    fn activity_resets_inactivity_timer() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(10_000, t(0));
        m.tick(t(2000));
        m.on_data(10_000, t(6000)); // refresh just before the 5 s timer
        m.tick(t(7000));
        assert_eq!(m.state(), RrcState::Dch);
        m.tick(t(11_000));
        assert_eq!(m.state(), RrcState::Fach);
    }

    #[test]
    fn simplified_machine_skips_fach() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::simplified()));
        m.on_data(100, t(0)); // small buffer still goes to DCH
        m.tick(t(2000));
        assert_eq!(m.state(), RrcState::Dch);
        m.tick(t(60_000));
        assert_eq!(m.state(), RrcState::Pch);
        let states: Vec<RrcState> = m.take_transitions().iter().map(|(_, tr)| tr.to).collect();
        assert!(!states.contains(&RrcState::Fach));
    }

    #[test]
    fn lte_promotion_is_fast() {
        let mut m = RrcMachine::new(RrcConfig::Lte(RrcLteConfig::default()));
        m.on_data(100, t(0));
        m.tick(t(260));
        assert_eq!(m.state(), RrcState::LteContinuous);
        assert!(m.can_transmit());
    }

    #[test]
    fn lte_drx_ladder_then_idle() {
        let mut m = RrcMachine::new(RrcConfig::Lte(RrcLteConfig::default()));
        m.on_data(100, t(0));
        m.tick(t(260));
        m.tick(t(360)); // continuous -> short DRX at +100 ms
        assert_eq!(m.state(), RrcState::LteShortDrx);
        m.tick(t(760)); // short -> long DRX at +400 ms
        assert_eq!(m.state(), RrcState::LteLongDrx);
        m.tick(t(11_760)); // long DRX -> idle at +11 s
        assert_eq!(m.state(), RrcState::LteIdle);
    }

    #[test]
    fn lte_drx_snaps_back_on_data() {
        let mut m = RrcMachine::new(RrcConfig::Lte(RrcLteConfig::default()));
        m.on_data(100, t(0));
        m.tick(t(260));
        m.tick(t(500));
        assert_eq!(m.state(), RrcState::LteShortDrx);
        m.on_data(100, t(600));
        assert_eq!(m.state(), RrcState::LteContinuous);
        assert!(m.can_transmit());
    }

    #[test]
    fn promotion_failure_delays_completion_by_the_penalty() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.inject_promotion_failures(2, SimDuration::from_millis(800));
        m.on_data(10_000, t(0)); // PCH→DCH due at 2000 ms
        m.tick(t(2000));
        assert!(m.promoting(), "first attempt must fail");
        assert_eq!(m.next_wake(), Some(t(2800)));
        m.tick(t(2800));
        assert!(m.promoting(), "second attempt must fail");
        m.tick(t(3600));
        assert_eq!(m.state(), RrcState::Dch);
        assert!(m.can_transmit());
    }

    #[test]
    fn late_tick_consumes_all_promotion_failures() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.inject_promotion_failures(3, SimDuration::from_millis(500));
        m.on_data(10_000, t(0));
        m.tick(t(4000)); // past every retry
        assert_eq!(m.state(), RrcState::Dch);
        // Completion is stamped at the deterministic retry instant, not at
        // the observation time.
        let trans = m.take_transitions();
        assert_eq!(trans[0].0, t(3500));
    }

    #[test]
    fn tech_switch_maps_connected_to_connected_and_idle_to_idle() {
        // Connected 3G → LTE keeps the bearer up.
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        m.on_data(10_000, t(0));
        m.tick(t(2000));
        assert_eq!(m.state(), RrcState::Dch);
        m.switch_tech(RrcConfig::Lte(RrcLteConfig::default()), t(3000));
        assert_eq!(m.state(), RrcState::LteContinuous);
        assert!(m.can_transmit());
        assert_eq!(m.tech(), RadioTech::Lte);

        // Mid-promotion LTE → 3G loses the pending promotion.
        let mut m = RrcMachine::new(RrcConfig::Lte(RrcLteConfig::default()));
        m.on_data(100, t(0));
        assert!(m.promoting());
        m.switch_tech(RrcConfig::Umts3g(Rrc3gConfig::default()), t(100));
        assert_eq!(m.state(), RrcState::Pch);
        assert!(!m.promoting());
        // Fresh data promotes under the new technology's timers.
        m.on_data(10_000, t(200));
        m.tick(t(2200));
        assert_eq!(m.state(), RrcState::Dch);
    }

    #[test]
    fn next_wake_tracks_promotion_then_demotion() {
        let mut m = RrcMachine::new(RrcConfig::Umts3g(Rrc3gConfig::default()));
        assert_eq!(m.next_wake(), None); // resting in PCH
        m.on_data(10_000, t(0));
        assert_eq!(m.next_wake(), Some(t(2000)));
        m.tick(t(2000));
        assert_eq!(m.next_wake(), Some(t(7000)));
    }
}
