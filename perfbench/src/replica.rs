//! Traced replicas of the workloads' session scripts.
//!
//! The benchmark may not instrument the program, so the traced run
//! re-drives each cell's session script from here through the public
//! `Controller` and `Phone` calls, with a span around every call into a
//! layer: `Phone::parse_ui` and `Phone::ui_revision` (device UI tree),
//! `Controller::advance_to` (the simcore/netstack/radio kernel),
//! `Controller::interact`, and `Collection::save`/`Collection::load`
//! (trace bundles). [`Traced`] re-implements the controller's wait loops
//! call for call; the caller compares each replica's `Collection` with the
//! untraced job's, so a drift between the two shows up as a failed check
//! instead of as a trace of a different program.

use std::path::Path;
use std::time::{Duration, Instant};

use device::apps::{BrowserConfig, VideoSpec};
use device::{UiEvent, View, ViewSignature};
use qoe_doctor::analyze::transport::TransportReport;
use qoe_doctor::{BehaviorRecord, Collection, Controller, StartKind, WaitCondition};
use repro::scenario::{browser_world, video_dataset, youtube_world};
use repro::NetKind;
use simcore::{DetRng, SimDuration, SimTime};
use trace::{BundleArtifact, BundleMeta, TraceError};

/// Busy time and call count of one span kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    /// Calls made.
    pub calls: u64,
    /// Host time inside those calls.
    pub busy: Duration,
}

impl Span {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.busy += t0.elapsed();
        self.calls += 1;
        out
    }

    fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.busy += other.busy;
    }

    /// Busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.busy.as_secs_f64() * 1e3
    }
}

/// Per-layer spans and counters of one or more replayed sessions.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    /// `Phone::parse_ui`.
    pub parse: Span,
    /// Views in every parsed snapshot, summed.
    pub parsed_views: u64,
    /// `Phone::ui_revision`.
    pub revision: Span,
    /// `Controller::advance_to`.
    pub advance: Span,
    /// `Controller::interact`.
    pub interact: Span,
    /// `Collection::save`.
    pub save: Span,
    /// Bytes `Collection::save` wrote.
    pub saved_bytes: u64,
    /// `Collection::load`.
    pub load: Span,
    /// Bytes `Collection::load` read.
    pub loaded_bytes: u64,
    /// Packets the capture recorded.
    pub packets: u64,
    /// TCP retransmissions in the packet trace.
    pub retx: u64,
    /// QxDM RLC PDU records.
    pub pdu_records: u64,
    /// QxDM RRC state transitions.
    pub rrc_transitions: u64,
    /// Host time of whole replayed sessions (the record stage).
    pub session: Span,
}

impl Layers {
    /// Fold another set of spans into this one.
    pub fn merge(&mut self, o: &Layers) {
        self.parse.add(&o.parse);
        self.parsed_views += o.parsed_views;
        self.revision.add(&o.revision);
        self.advance.add(&o.advance);
        self.interact.add(&o.interact);
        self.save.add(&o.save);
        self.saved_bytes += o.saved_bytes;
        self.load.add(&o.load);
        self.loaded_bytes += o.loaded_bytes;
        self.packets += o.packets;
        self.retx += o.retx;
        self.pdu_records += o.pdu_records;
        self.rrc_transitions += o.rrc_transitions;
        self.session.add(&o.session);
    }

    /// Count the kernel's work recorded in a finished session.
    pub fn count_collection(&mut self, col: &Collection) {
        self.packets += col.trace.len() as u64;
        self.retx += u64::from(TransportReport::analyze(&col.trace).total_retx());
        if let Some(q) = &col.qxdm {
            self.pdu_records += q.pdus.len() as u64;
            self.rrc_transitions += q.rrc.len() as u64;
        }
    }

    /// Save `col` as a bundle under `dir`, timed as a trace write.
    pub fn save(&mut self, col: &Collection, dir: &Path, meta: &BundleMeta) -> Result<(), String> {
        self.save
            .time(|| col.save(dir, meta))
            .map_err(|e| format!("save {}: {e}", dir.display()))?;
        self.saved_bytes += dir_bytes(dir);
        Ok(())
    }

    /// Load the bundle under `dir` as an `A` (a single collection, or a
    /// set with one nested bundle per session), timed as a trace read.
    pub fn load<A: BundleArtifact>(&mut self, dir: &Path) -> Result<A, TraceError> {
        let (artifact, _) = self.load.time(|| A::load_bundle(dir))?;
        self.loaded_bytes += dir_bytes(dir);
        Ok(artifact)
    }
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// A controller whose layer calls are all made — and timed — from here.
struct Traced<'a> {
    doctor: Controller,
    spans: &'a mut Layers,
}

/// Where a replayed wait ended.
struct Waited {
    pass_end: SimTime,
    mean_parse: SimDuration,
    met: bool,
}

impl Traced<'_> {
    fn advance_to(&mut self, target: SimTime) {
        let doctor = &mut self.doctor;
        self.spans.advance.time(|| doctor.advance_to(target));
    }

    fn advance(&mut self, d: SimDuration) {
        self.advance_to(self.doctor.now + d);
    }

    fn interact(&mut self, ev: &UiEvent) {
        let doctor = &mut self.doctor;
        self.spans.interact.time(|| doctor.interact(ev));
    }

    fn parse(&mut self) -> (View, SimDuration) {
        let now = self.doctor.now;
        let phone = &mut self.doctor.world.phone;
        let (view, cost) = self.spans.parse.time(|| phone.parse_ui(now));
        self.spans.parsed_views += view.count() as u64;
        (view, cost)
    }

    fn revision(&mut self) -> u64 {
        let now = self.doctor.now;
        let phone = &mut self.doctor.world.phone;
        self.spans.revision.time(|| phone.ui_revision(now))
    }

    /// `Controller::parse_once`.
    fn parse_once(&mut self) -> View {
        let (snapshot, cost) = self.parse();
        self.advance_to(self.doctor.now + cost);
        snapshot
    }

    /// `Controller::wait_for` without a UI watchdog (none of the replayed
    /// scripts arms one). The revision reads still happen, exactly as in
    /// the controller.
    fn wait_for(&mut self, cond: &WaitCondition, timeout: SimTime) -> Waited {
        let mut parse_total = SimDuration::ZERO;
        let mut parses = 0u64;
        let _ = self.revision();
        loop {
            let (snapshot, cost) = self.parse();
            parse_total += cost;
            parses += 1;
            self.advance_to(self.doctor.now + cost);
            let pass_end = self.doctor.now;
            let mean_parse = parse_total / parses;
            let met = cond.holds(&snapshot);
            if !met {
                let _ = self.revision();
            }
            if met || pass_end >= timeout {
                return Waited {
                    pass_end,
                    mean_parse,
                    met,
                };
            }
        }
    }

    /// `Controller::measure_after`; returns whether the wait timed out.
    fn measure_after(
        &mut self,
        action: &str,
        trigger: &UiEvent,
        cond: &WaitCondition,
        timeout: SimDuration,
    ) -> bool {
        let start = self.doctor.now;
        self.interact(trigger);
        let w = self.wait_for(cond, start + timeout);
        self.doctor.log.push(
            w.pass_end,
            BehaviorRecord {
                action: action.to_string(),
                start,
                end: w.pass_end,
                start_kind: StartKind::Trigger,
                mean_parse: w.mean_parse,
                timed_out: !w.met,
            },
        );
        !w.met
    }

    /// `Controller::monitor_playback` without a UI watchdog.
    fn monitor_playback(&mut self, action: &str, timeout: SimDuration) {
        let playback_start = self.doctor.now;
        let deadline = playback_start + timeout;
        let status = |value: &str| WaitCondition::TextIs {
            id: "player_status".into(),
            value: value.into(),
        };
        let (finished, stalled) = (status("finished"), status("rebuffering"));
        let _ = self.revision();
        let mut done = false;
        loop {
            let mut timed_out = true;
            while self.doctor.now < deadline {
                let snapshot = self.parse_once();
                let _ = self.revision();
                if finished.holds(&snapshot) {
                    done = true;
                    timed_out = false;
                    break;
                }
                if stalled.holds(&snapshot) {
                    timed_out = false;
                    break;
                }
            }
            if done || timed_out {
                break;
            }
            let stall_start = self.doctor.now;
            let playing = WaitCondition::Hidden {
                id: "player_progress".into(),
            };
            let w = self.wait_for(&playing, deadline);
            self.doctor.log.push(
                w.pass_end,
                BehaviorRecord {
                    action: format!("{action}:rebuffer"),
                    start: stall_start,
                    end: w.pass_end,
                    start_kind: StartKind::Parse,
                    mean_parse: w.mean_parse,
                    timed_out: !w.met,
                },
            );
            if !w.met {
                break;
            }
            let _ = self.revision();
        }
        let now = self.doctor.now;
        self.doctor.log.push(
            now,
            BehaviorRecord {
                action: format!("{action}:playback"),
                start: playback_start,
                end: now,
                start_kind: StartKind::Parse,
                mean_parse: SimDuration::ZERO,
                timed_out: !done,
            },
        );
    }

    fn collect(self) -> Collection {
        self.doctor.collect()
    }
}

/// Run `script` on a fresh controller over `world`, timing the whole
/// session and counting the kernel work it recorded.
fn session(
    world: device::World,
    spans: &mut Layers,
    script: impl FnOnce(&mut Traced<'_>),
) -> Collection {
    let t0 = Instant::now();
    let mut t = Traced {
        doctor: Controller::new(world),
        spans,
    };
    script(&mut t);
    let col = t.collect();
    spans.session.busy += t0.elapsed();
    spans.session.calls += 1;
    spans.count_collection(&col);
    col
}

/// The fixed video subset every Fig. 17 cell watches: the dataset
/// shuffled by a seed of its own, independent of the run seed.
fn fig17_picks(count: usize) -> Vec<VideoSpec> {
    let dataset = video_dataset(11);
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    DetRng::seed_from_u64(777).shuffle(&mut order);
    order[..count.min(order.len())]
        .iter()
        .map(|i| dataset[*i].clone())
        .collect()
}

/// One Fig. 17 cell: search once, then play each picked video to its end.
pub fn watch_session(net: NetKind, count: usize, seed: u64, spans: &mut Layers) -> Collection {
    let world = youtube_world(video_dataset(11), None, net, seed ^ 0xBEE, true);
    session(world, spans, |t| {
        t.advance(SimDuration::from_secs(5));
        t.interact(&UiEvent::TypeText {
            target: ViewSignature::by_id("search_box"),
            text: String::new(),
        });
        t.interact(&UiEvent::KeyEnter);
        t.advance(SimDuration::from_secs(10));
        for spec in fig17_picks(count) {
            let timed_out = t.measure_after(
                "video:initial_loading",
                &UiEvent::Click {
                    target: ViewSignature::by_id(&format!("result_{}", spec.name)),
                },
                &WaitCondition::Hidden {
                    id: "player_progress".into(),
                },
                SimDuration::from_secs(240),
            );
            if timed_out {
                continue;
            }
            let budget = spec.duration * 2
                + SimDuration::from_secs_f64(spec.total_bytes() as f64 * 8.0 / 64e3)
                + SimDuration::from_secs(60);
            t.monitor_playback("video", budget);
            t.advance(SimDuration::from_secs(3));
        }
    })
}

/// One §7.7 cell: load the test page `reps` times from an idle radio.
pub fn page_session(
    browser: BrowserConfig,
    net: NetKind,
    reps: usize,
    seed: u64,
    spans: &mut Layers,
) -> Collection {
    let world = browser_world(browser, net, seed);
    session(world, spans, |t| {
        t.advance(SimDuration::from_secs(2));
        t.interact(&UiEvent::TypeText {
            target: ViewSignature::by_id("url_bar"),
            text: "http://www.example.com/".into(),
        });
        for _ in 0..reps {
            t.measure_after(
                "page_load",
                &UiEvent::KeyEnter,
                &WaitCondition::Hidden {
                    id: "page_progress".into(),
                },
                SimDuration::from_secs(90),
            );
            t.advance(SimDuration::from_secs(25));
        }
    })
}

/// Name the first field in which two collections of the same cell differ.
pub fn collection_diff(replica: &Collection, job: &Collection) -> Option<&'static str> {
    if replica.end != job.end {
        Some("end time")
    } else if replica.trace != job.trace {
        Some("packet trace")
    } else if replica.qxdm != job.qxdm {
        Some("QxDM log")
    } else if replica.behavior != job.behavior {
        Some("behaviour log")
    } else if replica != job {
        Some("CPU meter, PDU truth or camera log")
    } else {
        None
    }
}
