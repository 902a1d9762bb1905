//! Controller behaviour tests: the see–interact–wait loop, calibration
//! bookkeeping, timeouts, and span measurements against a scripted app.

use std::sync::Arc;

use device::ui::View;
use device::{App, AppCx, Internet, NetAttachment, Phone, UiEvent, World};
use netstack::dns::DNS_PORT;
use netstack::{IpAddr, SocketAddr};
use qoe_doctor::{Controller, StartKind, WaitCondition};
use simcore::{DetRng, EventQueue, SimDuration, SimTime};

/// A scripted app: shows a progress bar and hides it after a fixed delay
/// when clicked; appends an item after another delay.
struct ScriptedApp {
    tasks: EventQueue<&'static str>,
    spin_delay: SimDuration,
    item_delay: SimDuration,
}

impl ScriptedApp {
    fn new(spin_ms: u64, item_ms: u64) -> ScriptedApp {
        ScriptedApp {
            tasks: EventQueue::new(),
            spin_delay: SimDuration::from_millis(spin_ms),
            item_delay: SimDuration::from_millis(item_ms),
        }
    }
}

impl App for ScriptedApp {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn start(&mut self, cx: &mut AppCx) {
        let layout = View::new("LinearLayout", "app_root")
            .with_child(View::new("android.widget.Button", "go"))
            .with_child(View::new("android.widget.ProgressBar", "spinner").with_visible(false))
            .with_child(View::new("android.widget.ListView", "list"));
        cx.ui.mutate(cx.now, "launch", |root| {
            root.children = Arc::new(vec![layout])
        });
    }
    fn on_ui_event(&mut self, ev: &UiEvent, cx: &mut AppCx) {
        if let UiEvent::Click { .. } = ev {
            cx.ui.set_visible(cx.now, "spinner", true);
            self.tasks.push(cx.now + self.spin_delay, "hide");
            self.tasks.push(cx.now + self.item_delay, "item");
        }
    }
    fn tick(&mut self, cx: &mut AppCx) {
        while let Some((_, what)) = self.tasks.pop_due(cx.now) {
            match what {
                "hide" => cx.ui.set_visible(cx.now, "spinner", false),
                "item" => cx
                    .ui
                    .prepend_item(cx.now, "list", "TextView", "done-marker"),
                _ => unreachable!(),
            }
        }
    }
    fn next_wake(&self) -> Option<SimTime> {
        self.tasks.next_at()
    }
}

fn scripted_world(spin_ms: u64, item_ms: u64) -> World {
    let mut rng = DetRng::seed_from_u64(9);
    let resolver = SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT);
    let internet = Internet::new(resolver, rng.fork(1));
    let phone = Phone::new(
        IpAddr::new(10, 0, 0, 2),
        resolver,
        NetAttachment::wifi(&mut rng),
        Box::new(ScriptedApp::new(spin_ms, item_ms)),
        rng.fork(2),
    );
    World::new(phone, internet)
}

fn click() -> UiEvent {
    UiEvent::Click {
        target: device::ViewSignature::by_id("go"),
    }
}

#[test]
fn trigger_measurement_approximates_scripted_delay() {
    let mut doctor = Controller::new(scripted_world(500, 900));
    doctor.advance(SimDuration::from_secs(1));
    let m = doctor.measure_after(
        "text_appears",
        &click(),
        &WaitCondition::TextAppears {
            container: "list".into(),
            needle: "done-marker".into(),
        },
        SimDuration::from_secs(10),
    );
    assert!(!m.timed_out);
    assert_eq!(m.start_kind, StartKind::Trigger);
    let lat = m.calibrated().as_secs_f64();
    // Scripted at 900 ms; measurement error should be bounded by roughly a
    // parse interval plus calibration residue.
    assert!((lat - 0.9).abs() < 0.05, "latency {lat}");
    // Raw is strictly larger than calibrated (positive correction).
    assert!(m.raw() > m.calibrated());
}

#[test]
fn span_measurement_approximates_spinner_window() {
    let mut doctor = Controller::new(scripted_world(700, 2_000));
    doctor.advance(SimDuration::from_secs(1));
    doctor.interact(&click());
    let m = doctor
        .measure_span(
            "spinner",
            &WaitCondition::Shown {
                id: "spinner".into(),
            },
            &WaitCondition::Hidden {
                id: "spinner".into(),
            },
            SimDuration::from_secs(10),
        )
        .expect("spinner observed");
    assert_eq!(m.start_kind, StartKind::Parse);
    let lat = m.calibrated().as_secs_f64();
    assert!((lat - 0.7).abs() < 0.05, "span {lat}");
}

#[test]
fn wait_timeout_is_flagged_not_fatal() {
    let mut doctor = Controller::new(scripted_world(500, 900));
    doctor.advance(SimDuration::from_secs(1));
    let m = doctor.measure_after(
        "never",
        &click(),
        &WaitCondition::TextAppears {
            container: "list".into(),
            needle: "no-such-text".into(),
        },
        SimDuration::from_secs(2),
    );
    assert!(m.timed_out);
    assert!(m.raw() >= SimDuration::from_secs(2));
    // The log still recorded the attempt.
    assert_eq!(doctor.log.len(), 1);
}

#[test]
fn span_begin_timeout_returns_none() {
    let mut doctor = Controller::new(scripted_world(500, 900));
    doctor.advance(SimDuration::from_secs(1));
    // No click: the spinner never shows.
    let m = doctor.measure_span(
        "no_begin",
        &WaitCondition::Shown {
            id: "spinner".into(),
        },
        &WaitCondition::Hidden {
            id: "spinner".into(),
        },
        SimDuration::from_secs(2),
    );
    assert!(m.is_none());
    assert!(doctor.log.is_empty());
}

#[test]
fn parsing_costs_time_and_cpu() {
    let mut doctor = Controller::new(scripted_world(500, 900));
    doctor.advance(SimDuration::from_secs(1));
    let before = doctor.now;
    let cpu_before = doctor.world.phone.cpu.controller_busy;
    for _ in 0..10 {
        let (snapshot, cost) = doctor.world.phone.parse_ui(doctor.now);
        doctor.advance_to(doctor.now + cost);
        assert!(snapshot.find("go").is_some());
    }
    assert!(doctor.now > before, "parsing advances the clock");
    assert!(doctor.world.phone.cpu.controller_busy > cpu_before);
}

#[test]
fn measurements_are_seed_deterministic() {
    let run = || {
        let mut doctor = Controller::new(scripted_world(500, 900));
        doctor.advance(SimDuration::from_secs(1));
        let m = doctor.measure_after(
            "text_appears",
            &click(),
            &WaitCondition::TextAppears {
                container: "list".into(),
                needle: "done-marker".into(),
            },
            SimDuration::from_secs(10),
        );
        m.calibrated()
    };
    assert_eq!(run(), run());
}

#[test]
fn collect_hands_over_all_artifacts() {
    let mut doctor = Controller::new(scripted_world(500, 900));
    doctor.advance(SimDuration::from_secs(1));
    doctor.measure_after(
        "text_appears",
        &click(),
        &WaitCondition::TextAppears {
            container: "list".into(),
            needle: "done-marker".into(),
        },
        SimDuration::from_secs(10),
    );
    let col = doctor.collect();
    assert_eq!(col.behavior.len(), 1);
    assert!(!col.camera.is_empty(), "camera recorded the UI changes");
    assert!(col.qxdm.is_none(), "no QxDM log on WiFi");
    assert!(col.end >= SimTime::from_secs(1));
}
