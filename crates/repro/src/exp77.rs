//! §7.7 — Impact of the RRC state machine design on page loading.
//!
//! Web page loads start from an idle radio. On the default 3G machine the
//! first small packets (DNS, SYN) promote PCH→FACH (1.6 s at low shared
//! bandwidth); the HTML response then overflows the FACH buffer threshold,
//! forcing a second FACH→DCH promotion (1.5 s). The simplified machine
//! promotes PCH→DCH directly, trading idle-state power for one promotion.
//! The paper measured a 22.8% page-load-time reduction.

use crate::scenario::{browser_world, NetKind};
use device::apps::BrowserConfig;
use qoe_doctor::analyze::crosslayer::rrc_transitions_in;
use qoe_doctor::bundle::{BEHAVIOR, QXDM};
use qoe_doctor::replay::{self, PAGE_LOAD};
use qoe_doctor::{Calendar, Collection, Controller, Kernel};
use simcore::{SimDuration, Summary};
use std::fmt;
use trace::Reads;

/// Results for one (browser × machine) configuration.
#[derive(Debug, Clone)]
pub struct PageLoadRun {
    /// Browser name.
    pub browser: &'static str,
    /// Network / state machine label.
    pub net: String,
    /// Calibrated page load times (seconds).
    pub loads: Summary,
    /// Mean number of RRC transitions inside each page-load window.
    pub rrc_transitions_per_load: f64,
}

impl fmt::Display for PageLoadRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<9} {:<14} load {:>5.2}s (sd {:>4.2}, n={:<2})  rrc-transitions/load {:>3.1}",
            self.browser,
            self.net,
            self.loads.mean,
            self.loads.std_dev,
            self.loads.n,
            self.rrc_transitions_per_load
        )
    }
}

/// Load the test page `reps` times from an idle radio.
pub fn run_config(browser: BrowserConfig, net: NetKind, reps: usize, seed: u64) -> PageLoadRun {
    let name = browser.name;
    page_load_run(&session::<Calendar>(browser, net, reps, seed), name, net)
}

/// Record one (browser × machine) session, run by kernel `K`.
pub fn session<K: Kernel>(
    browser: BrowserConfig,
    net: NetKind,
    reps: usize,
    seed: u64,
) -> Collection {
    let world = browser_world(browser, net, seed);
    let mut doctor = Controller::<K>::with_kernel(world);
    doctor.advance(SimDuration::from_secs(2));
    doctor.interact(&replay::type_url("http://www.example.com/"));
    for _ in 0..reps {
        replay::load_page(&mut doctor, SimDuration::from_secs(90));
        // Idle long enough for full demotion back to PCH/IDLE
        // (DCH 5 s + FACH 12 s on the default machine).
        doctor.advance(SimDuration::from_secs(25));
    }
    doctor.collect()
}

/// What [`page_load_run`] reads: the behaviour log and the QxDM log's RRC
/// transitions.
const PAGE_LOAD_READS: Reads = Reads::artifacts(&[BEHAVIOR, QXDM]);

/// Compute a [`PageLoadRun`] from a recorded session.
fn page_load_run(col: &Collection, name: &'static str, net: NetKind) -> PageLoadRun {
    let mut loads = Vec::new();
    let mut transitions = 0usize;
    let mut n = 0usize;
    for (_, rec) in col.behavior.iter() {
        if rec.action != PAGE_LOAD || rec.timed_out {
            continue;
        }
        loads.push(rec.calibrated().as_secs_f64());
        if let Some(qxdm) = &col.qxdm {
            transitions += rrc_transitions_in(qxdm, rec.start, rec.end).len();
        }
        n += 1;
    }
    PageLoadRun {
        browser: name,
        net: net.label(),
        loads: Summary::of(&loads),
        rrc_transitions_per_load: if n == 0 {
            0.0
        } else {
            transitions as f64 / n as f64
        },
    }
}

/// The §7.7 matrix as a two-stage campaign: one job per (browser × state
/// machine).
pub fn staged(reps: usize, seed: u64) -> harness::StagedCampaign<Collection, PageLoadRun> {
    let mut c = harness::StagedCampaign::new("exp77");
    for make in [
        BrowserConfig::chrome,
        BrowserConfig::firefox,
        BrowserConfig::stock,
    ] {
        for net in [NetKind::Umts3g, NetKind::Umts3gSimplified, NetKind::Lte] {
            let label = format!("{}/{}", make().name, net.label());
            let cfg = crate::stage::config_digest("exp77", &label, &[reps as u64]);
            c.job(
                label,
                seed,
                cfg,
                move || session::<Calendar>(make(), net, reps, seed),
                PAGE_LOAD_READS,
                move |col: &Collection| page_load_run(col, make().name, net),
            );
        }
    }
    c
}

/// The headline number: mean reduction of page load time from simplifying
/// the 3G machine, averaged across browsers.
pub fn reduction_percent(rows: &[PageLoadRun]) -> f64 {
    let mut total = 0.0;
    let mut n = 0;
    for browser in ["chrome", "firefox", "internet"] {
        let default = rows
            .iter()
            .find(|r| r.browser == browser && r.net == "3G")
            .map(|r| r.loads.mean);
        let simplified = rows
            .iter()
            .find(|r| r.browser == browser && r.net == "3G-simplified")
            .map(|r| r.loads.mean);
        if let (Some(d), Some(s)) = (default, simplified) {
            if d > 0.0 {
                total += (d - s) / d * 100.0;
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}
