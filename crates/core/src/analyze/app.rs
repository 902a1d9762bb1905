//! Application-layer analyzer (§5.1).
//!
//! Computes user-perceived latencies from the AppBehaviorLog — raw
//! measurements calibrated by the parsing-cost model — and, for the
//! accuracy evaluation of §7.1, compares calibrated measurements against
//! the screen ground truth (`t_screen`).
//!
//! Video playback reports have one definition, [`playback_reports`]: a
//! live session ([`monitor_playback`]) reads its report back from the log
//! it just wrote, the same way an offline analysis of a recorded bundle
//! does.

use crate::behavior::{AppBehaviorLog, BehaviorRecord, StartKind};
#[cfg(doc)]
use crate::replay::monitor_playback;
#[cfg(doc)]
use crate::Controller;
use device::ui::ScreenEvent;
use simcore::{RecordLog, SimDuration, SimTime, Summary};

/// The records of `action` that did not time out, in log order: the
/// completed measurements every latency analysis starts from.
pub fn completed<'a>(
    log: &'a AppBehaviorLog,
    action: &'a str,
) -> impl Iterator<Item = &'a BehaviorRecord> + 'a {
    log.iter()
        .map(|(_, r)| r)
        .filter(move |r| r.action == action && !r.timed_out)
}

/// Calibrated latencies (seconds) of the [`completed`] `action` records.
pub fn latencies_secs(log: &AppBehaviorLog, action: &str) -> Vec<f64> {
    completed(log, action)
        .map(|r| r.calibrated().as_secs_f64())
        .collect()
}

/// Summary statistics of calibrated latencies for `action`.
pub fn latency_summary(log: &AppBehaviorLog, action: &str) -> Summary {
    Summary::of(&latencies_secs(log, action))
}

/// A summary of a monitored video playback (initial loading handled
/// separately via [`Controller::measure_after`]), read from the behaviour
/// log by [`playback_reports`].
#[derive(Debug, Clone, Default)]
pub struct PlaybackReport {
    /// Total stall time after initial loading.
    pub stall: SimDuration,
    /// Total playing + stalling time after initial loading.
    pub span: SimDuration,
    /// Number of rebuffering events.
    pub stalls: u32,
    /// Whether the video reached the finished state within the timeout.
    pub finished: bool,
    /// Whether the UI watchdog cut monitoring short because the layout
    /// tree froze — a diagnosed device-layer fault, not a network stall.
    /// Not persisted in the log: only [`monitor_playback`] sets it.
    pub ui_frozen: bool,
}

impl PlaybackReport {
    /// The paper's rebuffering ratio: stall time over play + stall time.
    pub fn rebuffering_ratio(&self) -> f64 {
        let span = self.span.as_secs_f64();
        if span <= 0.0 {
            0.0
        } else {
            self.stall.as_secs_f64() / span
        }
    }
}

/// Reconstruct the playback reports of every monitored `action` session
/// from the behaviour log alone, in session order. Each
/// `"{action}:playback"` summary record yields one report: the span and
/// finish state come from the summary itself, the stall total and count
/// from the `"{action}:rebuffer"` records logged inside the span.
/// `ui_frozen` is not persisted in the log and is always `false` here;
/// frozen sessions also carry `timed_out` and so report unfinished.
/// [`monitor_playback`] returns the same report for the
/// session it just logged, so a recorded bundle analyzed offline reads
/// what the live session read.
pub fn playback_reports(log: &AppBehaviorLog, action: &str) -> Vec<PlaybackReport> {
    let summary_action = format!("{action}:playback");
    log.iter()
        .filter(|(_, r)| r.action == summary_action)
        .map(|(_, summary)| playback_report(log, action, summary))
        .collect()
}

/// [`playback_reports`]' report of the session whose summary record is
/// `summary`.
pub(crate) fn playback_report(
    log: &AppBehaviorLog,
    action: &str,
    summary: &BehaviorRecord,
) -> PlaybackReport {
    let rebuffer_action = format!("{action}:rebuffer");
    let mut report = PlaybackReport {
        span: summary.raw(),
        finished: !summary.timed_out,
        ..PlaybackReport::default()
    };
    for e in log.window(summary.start, summary.end) {
        if e.record.action == rebuffer_action {
            report.stall += e.record.calibrated();
            report.stalls += 1;
        }
    }
    report
}

/// Accuracy evaluation of one measurement against the screen camera
/// (Table 3 / Fig. 6).
#[derive(Debug, Clone, Copy)]
pub struct AccuracySample {
    /// |calibrated − ground truth| (`t_d` in the paper).
    pub error: SimDuration,
    /// The on-screen latency (`t_screen`-based ground truth).
    pub truth: SimDuration,
}

impl AccuracySample {
    /// Error ratio `t_d / t_screen`.
    pub fn ratio(&self) -> f64 {
        let t = self.truth.as_secs_f64();
        if t <= 0.0 {
            0.0
        } else {
            (self.error.as_secs_f64() / t).abs()
        }
    }
}

/// Find the first camera event in `[from, to]` whose label contains
/// `needle`, returning its screen time.
pub fn screen_event_at(
    camera: &RecordLog<ScreenEvent>,
    needle: &str,
    from: SimTime,
    to: SimTime,
) -> Option<SimTime> {
    camera
        .window(from, to)
        .iter()
        .find(|e| e.record.label.contains(needle))
        .map(|e| e.at)
}

/// Compare a trigger-started measurement against ground truth: the true
/// latency is `t_screen(end label) − trigger`, where the end label is the
/// camera label of the wait-ending UI change.
pub fn accuracy_trigger(
    record: &BehaviorRecord,
    camera: &RecordLog<ScreenEvent>,
    end_label: &str,
) -> Option<AccuracySample> {
    assert_eq!(record.start_kind, StartKind::Trigger);
    let slack = SimDuration::from_millis(500);
    let screen_end = screen_event_at(camera, end_label, record.start, record.end + slack)?;
    let truth = screen_end.saturating_since(record.start);
    let measured = record.calibrated();
    let error = if measured >= truth {
        measured - truth
    } else {
        truth - measured
    };
    Some(AccuracySample { error, truth })
}

/// Compare a parse-started (span) measurement against ground truth: the
/// true latency is `t_screen(end label) − t_screen(begin label)`.
pub fn accuracy_span(
    record: &BehaviorRecord,
    camera: &RecordLog<ScreenEvent>,
    begin_label: &str,
    end_label: &str,
) -> Option<AccuracySample> {
    assert_eq!(record.start_kind, StartKind::Parse);
    let slack = SimDuration::from_millis(500);
    let from = record.start.saturating_since(SimTime::ZERO + slack);
    let begin = screen_event_at(camera, begin_label, SimTime::ZERO + from, record.end)?;
    let end = screen_event_at(camera, end_label, begin, record.end + slack)?;
    let truth = end.saturating_since(begin);
    let measured = record.calibrated();
    let error = if measured >= truth {
        measured - truth
    } else {
        truth - measured
    };
    Some(AccuracySample { error, truth })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera_with(labels: &[(&str, u64)]) -> RecordLog<ScreenEvent> {
        let mut log = RecordLog::new();
        for (label, at_ms) in labels {
            log.push(
                SimTime::from_millis(*at_ms),
                ScreenEvent {
                    label: label.to_string(),
                    changed_at: SimTime::from_millis(*at_ms),
                },
            );
        }
        log
    }

    #[test]
    fn latency_filtering_by_action() {
        let mut log = AppBehaviorLog::new();
        let actions = [
            ("upload_post:status", false),
            ("upload_post:photos", false),
            ("upload_post:photos", true),
            ("pull", false),
        ];
        for (i, (action, timed_out)) in actions.iter().enumerate() {
            log.push(
                SimTime::from_secs(i as u64 + 1),
                BehaviorRecord {
                    action: action.to_string(),
                    start: SimTime::from_secs(i as u64),
                    end: SimTime::from_secs(i as u64 + 1),
                    start_kind: StartKind::Trigger,
                    mean_parse: SimDuration::ZERO,
                    timed_out: *timed_out,
                },
            );
        }
        assert_eq!(completed(&log, "upload_post:photos").count(), 1);
        assert_eq!(latencies_secs(&log, "upload_post:status").len(), 1);
        assert_eq!(latencies_secs(&log, "pull").len(), 1);
        assert_eq!(latency_summary(&log, "upload_post:photos").n, 1);
        // The action matches exactly: a prefix selects nothing.
        assert_eq!(completed(&log, "upload_post").count(), 0);
        assert_eq!(latencies_secs(&log, "pul").len(), 0);
    }

    #[test]
    fn accuracy_trigger_compares_to_screen() {
        let camera = camera_with(&[("news_feed:item:x", 1_050)]);
        let rec = BehaviorRecord {
            action: "upload_post:status".into(),
            start: SimTime::ZERO,
            end: SimTime::from_millis(1_080),
            start_kind: StartKind::Trigger,
            mean_parse: SimDuration::from_millis(20),
            timed_out: false,
        };
        // calibrated = 1080 - 30 = 1050 ms; truth = 1050 ms; error = 0.
        let s = accuracy_trigger(&rec, &camera, "news_feed:item").unwrap();
        assert_eq!(s.error, SimDuration::ZERO);
        assert_eq!(s.truth, SimDuration::from_millis(1_050));
        assert_eq!(s.ratio(), 0.0);
    }

    #[test]
    fn accuracy_span_uses_two_screen_events() {
        let camera = camera_with(&[("feed_progress:show", 100), ("feed_progress:hide", 900)]);
        let rec = BehaviorRecord {
            action: "pull_to_update".into(),
            start: SimTime::from_millis(110),
            end: SimTime::from_millis(930),
            start_kind: StartKind::Parse,
            mean_parse: SimDuration::from_millis(20),
            timed_out: false,
        };
        // calibrated = 820 - 20 = 800 ms; truth = 800 ms.
        let s = accuracy_span(&rec, &camera, "feed_progress:show", "feed_progress:hide").unwrap();
        assert_eq!(s.truth, SimDuration::from_millis(800));
        assert_eq!(s.error, SimDuration::ZERO);
    }

    #[test]
    fn missing_camera_event_yields_none() {
        let camera = camera_with(&[]);
        let rec = BehaviorRecord {
            action: "x".into(),
            start: SimTime::ZERO,
            end: SimTime::from_millis(100),
            start_kind: StartKind::Trigger,
            mean_parse: SimDuration::ZERO,
            timed_out: false,
        };
        assert!(accuracy_trigger(&rec, &camera, "anything").is_none());
    }
}
