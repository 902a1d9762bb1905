//! Speed-Index-style visual progress analysis.
//!
//! §4.2.3 of the paper notes that a more accurate page-load end point would
//! come from "capturing a video of the screen and then analyzing the video
//! frames as implemented in the Speed Index metric for WebPagetest", and
//! lists screen-video analysis as future work. This module implements that
//! extension against the simulator's screen log: the labelled draw events
//! inside a measurement window are the "frames", each contributing one
//! increment of visual completeness, and the Speed Index is the integral of
//! visual *in*completeness over the window:
//!
//! ```text
//!   SI = Σ_i  (t_i − t_start) · w_i        (w_i = 1/n for n draw events)
//! ```
//!
//! A page that paints most of its content early scores a low Speed Index
//! even when its last subresource straggles — exactly the distinction the
//! progress-bar end point cannot make.

use device::ui::ScreenEvent;
use simcore::{RecordLog, SimDuration, SimTime};

/// Visual progress over a measurement window.
#[derive(Debug, Clone)]
pub struct VisualProgress {
    /// Draw events inside the window: `(t_screen, label)`.
    pub events: Vec<(SimTime, String)>,
    /// The window start.
    pub start: SimTime,
    /// The window end (last draw, or window end when no draws).
    pub end: SimTime,
}

impl VisualProgress {
    /// Extract the visual progress of `[start, end]` from the screen log.
    pub fn of(camera: &RecordLog<ScreenEvent>, start: SimTime, end: SimTime) -> VisualProgress {
        let events: Vec<(SimTime, String)> = camera
            .window(start, end)
            .iter()
            .map(|e| (e.at, e.record.label.clone()))
            .collect();
        let last = events.last().map(|(at, _)| *at).unwrap_or(end);
        VisualProgress {
            events,
            start,
            end: last,
        }
    }

    /// The Speed Index of the window: mean draw time weighted equally per
    /// draw event. `None` when nothing was drawn.
    pub fn speed_index(&self) -> Option<SimDuration> {
        if self.events.is_empty() {
            return None;
        }
        let n = self.events.len() as f64;
        let total: f64 = self
            .events
            .iter()
            .map(|(at, _)| at.saturating_since(self.start).as_secs_f64())
            .sum();
        Some(SimDuration::from_secs_f64(total / n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera(events_ms: &[(u64, &str)]) -> RecordLog<ScreenEvent> {
        let mut log = RecordLog::new();
        for (at, label) in events_ms {
            log.push(
                SimTime::from_millis(*at),
                ScreenEvent {
                    label: label.to_string(),
                    changed_at: SimTime::from_millis(*at),
                },
            );
        }
        log
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn speed_index_is_mean_draw_time() {
        let cam = camera(&[(100, "a"), (200, "b"), (600, "c")]);
        let vp = VisualProgress::of(&cam, t(0), t(1_000));
        // (100 + 200 + 600) / 3 = 300 ms.
        assert_eq!(vp.speed_index(), Some(SimDuration::from_millis(300)));
    }

    #[test]
    fn early_paint_beats_late_paint_with_same_end() {
        let early = camera(&[(50, "a"), (80, "b"), (900, "c")]);
        let late = camera(&[(700, "a"), (800, "b"), (900, "c")]);
        let si_early = VisualProgress::of(&early, t(0), t(1_000))
            .speed_index()
            .unwrap();
        let si_late = VisualProgress::of(&late, t(0), t(1_000))
            .speed_index()
            .unwrap();
        // Same last-paint time; Speed Index separates them.
        assert!(si_early < si_late, "{si_early} vs {si_late}");
    }

    #[test]
    fn empty_window_yields_none() {
        let cam = camera(&[(5_000, "late")]);
        let vp = VisualProgress::of(&cam, t(0), t(1_000));
        assert_eq!(vp.speed_index(), None);
    }

    #[test]
    fn window_excludes_outside_events() {
        let cam = camera(&[(100, "in"), (5_000, "out")]);
        let vp = VisualProgress::of(&cam, t(0), t(1_000));
        assert_eq!(vp.events.len(), 1);
        assert_eq!(vp.speed_index(), Some(SimDuration::from_millis(100)));
    }
}
