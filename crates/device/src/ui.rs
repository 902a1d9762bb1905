//! Android-style UI layout tree.
//!
//! QoE Doctor measures user-perceived latency "directly from UI changes"
//! (§4.1): the controller shares the app's process and periodically parses
//! the UI layout tree, addressing views by a *View signature* — never by
//! coordinates (§4.1). This module is that tree.
//!
//! Two timestamps matter for the accuracy evaluation (Fig. 4): the moment
//! the layout tree changes (`t_ui`, what the controller can observe) and the
//! moment the change reaches the screen (`t_screen = t_ui + draw delay`,
//! what the user sees, which the paper ground-truths with a 60 fps camera).
//! Every mutation here logs both: the layout change is immediately visible
//! to [`UiTree::snapshot`], and a [`ScreenEvent`] with the draw-completed
//! time lands in the camera log.
//!
//! The controller parses the tree every `t_parsing`, far more often than
//! the app changes it, so views share their child lists copy-on-write
//! (`Arc<Vec<View>>`): a snapshot costs one root-node clone, and a mutation
//! copies only the path from the root to the view it changes. Snapshots
//! held across a mutation keep the tree as it was at their instant.

use std::sync::Arc;

use simcore::{DetRng, RecordLog, SimDuration, SimTime};

/// One node of the layout tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Android class name, e.g. `android.widget.ProgressBar`.
    pub class: String,
    /// Resource id, e.g. `news_feed`.
    pub id: String,
    /// Text content (list item text, button label, URL bar content).
    pub text: String,
    /// Visibility flag.
    pub visible: bool,
    /// Child views, shared copy-on-write between snapshots: replace the
    /// list or go through [`View::children_mut`] to change it.
    pub children: Arc<Vec<View>>,
}

impl View {
    /// A new view of `class` with resource id `id`.
    pub fn new(class: &str, id: &str) -> View {
        View {
            class: class.to_string(),
            id: id.to_string(),
            text: String::new(),
            visible: true,
            children: Arc::default(),
        }
    }

    /// Builder: set initial text.
    pub fn with_text(mut self, text: &str) -> View {
        self.text = text.to_string();
        self
    }

    /// Builder: set initial visibility.
    pub fn with_visible(mut self, visible: bool) -> View {
        self.visible = visible;
        self
    }

    /// Builder: add a child.
    pub fn with_child(mut self, child: View) -> View {
        self.children_mut().push(child);
        self
    }

    /// The child list, unshared first if a snapshot still holds it.
    pub fn children_mut(&mut self) -> &mut Vec<View> {
        Arc::make_mut(&mut self.children)
    }

    /// Depth-first search for a view by resource id.
    pub fn find(&self, id: &str) -> Option<&View> {
        if self.id == id {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(id))
    }

    /// Depth-first mutable search by resource id. Only the child lists on
    /// the path from `self` to the match are unshared; siblings stay shared
    /// with any snapshot that holds them.
    pub fn find_mut(&mut self, id: &str) -> Option<&mut View> {
        let mut path = Vec::new();
        if !self.path_to(id, &mut path) {
            return None;
        }
        let mut view = self;
        for i in path {
            view = &mut view.children_mut()[i];
        }
        Some(view)
    }

    /// Child indices from `self` down to the first view (depth-first) with
    /// resource id `id`, appended to `path`; false when there is none.
    fn path_to(&self, id: &str, path: &mut Vec<usize>) -> bool {
        if self.id == id {
            return true;
        }
        for (i, c) in self.children.iter().enumerate() {
            path.push(i);
            if c.path_to(id, path) {
                return true;
            }
            path.pop();
        }
        false
    }

    /// First view matching a signature, depth-first.
    pub fn find_signature(&self, sig: &ViewSignature) -> Option<&View> {
        if sig.matches(self) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_signature(sig))
    }

    /// True when any view in the subtree contains `needle` in its text.
    pub fn any_text_contains(&self, needle: &str) -> bool {
        self.text.contains(needle) || self.children.iter().any(|c| c.any_text_contains(needle))
    }

    /// Total number of views in the subtree.
    pub fn count(&self) -> usize {
        1 + self.children.iter().map(View::count).sum::<usize>()
    }
}

/// Addresses a view by characteristics rather than coordinates (§4.1), so
/// replay specifications transfer across devices and screen sizes. The
/// paper's signature is {class name, View ID, developer description}; every
/// view the modelled apps act on has a unique resource id, so the id alone
/// is the signature here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewSignature {
    /// Required resource id.
    pub id: String,
}

impl ViewSignature {
    /// Signature matching a resource id.
    pub fn by_id(id: &str) -> ViewSignature {
        ViewSignature { id: id.to_string() }
    }

    /// True when `view` satisfies the signature.
    pub fn matches(&self, view: &View) -> bool {
        view.id == self.id
    }
}

/// Ground-truth record: a labelled UI change and when it hit the screen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScreenEvent {
    /// What changed (e.g. `progress:feed_progress:hide`, `feed:item:<text>`).
    pub label: String,
    /// When the layout tree changed (`t_ui`).
    pub changed_at: SimTime,
}

/// The live layout tree plus the draw-delay model and camera log.
pub struct UiTree {
    root: View,
    /// `root.count()`, recomputed on every mutation so a parse pass need
    /// not walk the tree to price itself.
    views: usize,
    rng: DetRng,
    /// Mean UI drawing delay between a layout change and pixels on screen.
    pub draw_delay: SimDuration,
    /// Jitter fraction on the draw delay.
    pub draw_jitter: f64,
    /// Camera log: each entry's *time* is `t_screen`, its `changed_at` is
    /// `t_ui`. Evaluation-only; the controller never reads this.
    pub camera: RecordLog<ScreenEvent>,
    last_draw: SimTime,
    /// Mutation counter: bumps on every applied layout change. The
    /// controller's UI watchdog compares what *it* can observe
    /// ([`UiTree::observe`]'s revision), which stays flat during a freeze.
    revision: u64,
    /// Injected ANR/UI-freeze windows `[from, until)`: the layout tree the
    /// instrumentation reader sees stops updating for the duration.
    freezes: Vec<(SimTime, SimTime)>,
    /// Injected slow-draw windows `[from, until), factor`: the draw delay
    /// is multiplied by `factor` inside the window.
    slow_draws: Vec<(SimTime, SimTime, f64)>,
    /// While a freeze is active: what an observer sees instead of the live
    /// tree.
    frozen: Option<Frozen>,
}

/// The observable state pinned at the start of a freeze.
struct Frozen {
    /// End of the union of overlapping or touching freeze windows.
    until: SimTime,
    /// The tree at freeze start (shares storage with the live tree until
    /// the first mutation inside the window).
    view: View,
    revision: u64,
    views: usize,
}

impl UiTree {
    /// New tree rooted at `root`.
    pub fn new(root: View, rng: DetRng) -> UiTree {
        UiTree {
            views: root.count(),
            root,
            rng,
            draw_delay: SimDuration::from_millis(14),
            draw_jitter: 0.30,
            camera: RecordLog::new(),
            last_draw: SimTime::ZERO,
            revision: 0,
            freezes: Vec::new(),
            slow_draws: Vec::new(),
            frozen: None,
        }
    }

    /// Inject an ANR-style UI freeze: in `[from, until)` the tree an
    /// observer parses stops updating (the app's internal state still
    /// advances), and draws land no earlier than `until`. Overlapping or
    /// touching windows act as one freeze over their union.
    pub fn add_freeze(&mut self, from: SimTime, until: SimTime) {
        self.freezes.push((from, until));
        if let Some(frozen) = &mut self.frozen {
            frozen.until = union_end(&self.freezes, frozen.until);
        }
    }

    /// Inject a slow-draw window: draw delays in `[from, until)` are
    /// multiplied by `factor`.
    pub fn add_slow_draw(&mut self, from: SimTime, until: SimTime, factor: f64) {
        assert!(
            factor.is_finite() && factor >= 1.0,
            "slow-draw factor must be >= 1, got {factor}"
        );
        self.slow_draws.push((from, until, factor));
    }

    /// End of the freeze covering `now`: the end of the union of every
    /// window that contains `now` or overlaps or touches one that does.
    fn freeze_until(&self, now: SimTime) -> Option<SimTime> {
        self.freezes
            .iter()
            .filter(|(f, u)| *f <= now && now < *u)
            .map(|(_, u)| *u)
            .max()
            .map(|end| union_end(&self.freezes, end))
    }

    /// Bring the frozen-view bookkeeping up to `now`: thaw an expired
    /// freeze, capture the visible tree when a window is entered.
    fn sync_freeze(&mut self, now: SimTime) {
        if self.frozen.as_ref().is_some_and(|f| now >= f.until) {
            self.frozen = None;
        }
        if self.frozen.is_none() {
            if let Some(until) = self.freeze_until(now) {
                self.frozen = Some(Frozen {
                    until,
                    view: self.root.clone(),
                    revision: self.revision,
                    views: self.views,
                });
            }
        }
    }

    /// The tree an observer sees at `now`, with its revision and view
    /// count. During a freeze window all three are pinned to their values
    /// at freeze start.
    fn observed(&mut self, now: SimTime) -> (&View, u64, usize) {
        self.sync_freeze(now);
        match &self.frozen {
            Some(f) => (&f.view, f.revision, f.views),
            None => (&self.root, self.revision, self.views),
        }
    }

    /// What an instrumentation reader sees at `now`: a snapshot of the
    /// layout tree plus its revision. The snapshot shares storage with the
    /// tree, so it costs one root-node clone whatever the tree's size;
    /// later mutations copy on write and never show through it. During a
    /// freeze window both are pinned to their values at freeze start.
    pub fn observe(&mut self, now: SimTime) -> (View, u64) {
        let (view, revision, _) = self.observed(now);
        (view.clone(), revision)
    }

    /// [`UiTree::observe`]'s revision alone, without taking a snapshot.
    pub fn observed_revision(&mut self, now: SimTime) -> u64 {
        self.observed(now).1
    }

    /// `View::count()` of the tree [`UiTree::observe`] returns at `now`,
    /// without walking it.
    pub fn observed_views(&mut self, now: SimTime) -> usize {
        self.observed(now).2
    }

    /// Read-only access to the live tree (in-process, as the controller's
    /// `see` component has via InstrumentationTestCase).
    pub fn root(&self) -> &View {
        &self.root
    }

    /// Snapshot of the current live tree (what a parse pass returns
    /// outside a freeze): shared storage, copy-on-write, as for
    /// [`UiTree::observe`].
    pub fn snapshot(&self) -> View {
        self.root.clone()
    }

    /// Apply a labelled mutation at `now`. The layout changes immediately;
    /// the screen catches up one draw delay later, which the camera records.
    pub fn mutate(&mut self, now: SimTime, label: &str, f: impl FnOnce(&mut View)) {
        // Capture the pre-mutation tree if a freeze window covers `now`:
        // observers keep seeing that snapshot until the window closes.
        self.sync_freeze(now);
        f(&mut self.root);
        self.views = self.root.count();
        self.revision += 1;
        let mut delay = self.rng.jittered(self.draw_delay, self.draw_jitter);
        if let Some(factor) = self
            .slow_draws
            .iter()
            .filter(|(f0, u, _)| *f0 <= now && now < *u)
            .map(|(_, _, k)| *k)
            .reduce(f64::max)
        {
            delay = delay.mul_f64(factor);
        }
        let mut drawn = (now + delay).max(self.last_draw);
        if let Some(frozen) = &self.frozen {
            drawn = drawn.max(frozen.until);
        }
        self.last_draw = drawn;
        self.camera.push(
            drawn,
            ScreenEvent {
                label: label.to_string(),
                changed_at: now,
            },
        );
    }

    /// Convenience: set a view's visibility.
    pub fn set_visible(&mut self, now: SimTime, id: &str, visible: bool) {
        let label = format!("{}:{}", id, if visible { "show" } else { "hide" });
        self.mutate(now, &label, |root| {
            if let Some(v) = root.find_mut(id) {
                v.visible = visible;
            }
        });
    }

    /// Convenience: set a view's text.
    pub fn set_text(&mut self, now: SimTime, id: &str, text: &str) {
        let label = format!("{id}:text");
        let owned = text.to_string();
        self.mutate(now, &label, |root| {
            if let Some(v) = root.find_mut(id) {
                v.text = owned;
            }
        });
    }

    /// Convenience: prepend an item (e.g. a news-feed entry) to a container.
    pub fn prepend_item(&mut self, now: SimTime, container: &str, class: &str, text: &str) {
        let label = format!("{container}:item:{text}");
        let item = View::new(class, &format!("{container}_item_{}", text.len())).with_text(text);
        self.mutate(now, &label, |root| {
            if let Some(v) = root.find_mut(container) {
                v.children_mut().insert(0, item);
            }
        });
    }
}

/// Extend a freeze ending at `end` through every window in `freezes` that
/// starts at or before its (growing) end.
fn union_end(freezes: &[(SimTime, SimTime)], mut end: SimTime) -> SimTime {
    loop {
        let next = freezes
            .iter()
            .filter(|(f, _)| *f <= end)
            .map(|(_, u)| *u)
            .fold(end, SimTime::max);
        if next == end {
            return end;
        }
        end = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> View {
        View::new("LinearLayout", "root")
            .with_child(View::new("android.widget.EditText", "composer"))
            .with_child(View::new("android.widget.Button", "post_button").with_text("Post"))
            .with_child(
                View::new("android.widget.ListView", "news_feed")
                    .with_child(View::new("TextView", "item0").with_text("hello world")),
            )
            .with_child(
                View::new("android.widget.ProgressBar", "feed_progress").with_visible(false),
            )
    }

    #[test]
    fn find_by_id_and_signature() {
        let t = tree();
        assert!(t.find("news_feed").is_some());
        assert!(t.find("nope").is_none());
        let sig = ViewSignature::by_id("post_button");
        assert_eq!(t.find_signature(&sig).unwrap().text, "Post");
        assert!(t.find_signature(&ViewSignature::by_id("nope")).is_none());
    }

    #[test]
    fn text_search_descends() {
        let t = tree();
        assert!(t.any_text_contains("hello"));
        assert!(!t.any_text_contains("goodbye"));
    }

    #[test]
    fn count_counts_subtree() {
        assert_eq!(tree().count(), 6);
    }

    #[test]
    fn mutations_are_immediately_visible_but_draw_later() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(1));
        let now = SimTime::from_secs(1);
        ui.set_visible(now, "feed_progress", true);
        // The layout tree reflects the change at once.
        assert!(ui.root().find("feed_progress").unwrap().visible);
        // The camera records the draw strictly after the change.
        let ev = &ui.camera.entries()[0];
        assert_eq!(ev.record.changed_at, now);
        assert!(ev.at > now);
        assert!(ev.at < now + SimDuration::from_millis(200));
    }

    #[test]
    fn draw_times_are_monotone() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(2));
        for i in 0..100u64 {
            ui.set_text(SimTime::from_micros(i * 10), "composer", &format!("t{i}"));
        }
        let times: Vec<SimTime> = ui.camera.iter().map(|(at, _)| at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn prepend_item_goes_first() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(3));
        ui.prepend_item(SimTime::ZERO, "news_feed", "TextView", "newest post");
        let feed = ui.root().find("news_feed").unwrap();
        assert_eq!(feed.children[0].text, "newest post");
        assert_eq!(feed.children.len(), 2);
    }

    #[test]
    fn snapshot_is_independent() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(4));
        let snap = ui.snapshot();
        ui.set_text(SimTime::ZERO, "composer", "changed");
        assert_eq!(snap.find("composer").unwrap().text, "");
        assert_eq!(ui.root().find("composer").unwrap().text, "changed");
    }

    #[test]
    fn freeze_pins_the_observed_tree_and_revision() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(5));
        ui.add_freeze(SimTime::from_secs(1), SimTime::from_secs(3));
        ui.set_text(SimTime::ZERO, "composer", "before");
        let (_, rev0) = ui.observe(SimTime::from_millis(500));
        // Mutations inside the window apply to the live tree but the
        // observer keeps seeing the pre-freeze snapshot + revision.
        ui.set_text(SimTime::from_millis(1500), "composer", "during");
        ui.set_text(SimTime::from_millis(2000), "composer", "during2");
        let (view, rev) = ui.observe(SimTime::from_millis(2500));
        assert_eq!(view.find("composer").unwrap().text, "before");
        assert_eq!(rev, rev0);
        // After the window the live tree (and its revision) reappears.
        let (view, rev) = ui.observe(SimTime::from_secs(3));
        assert_eq!(view.find("composer").unwrap().text, "during2");
        assert!(rev > rev0);
        // Draws deferred past the freeze end.
        let last = ui.camera.iter().map(|(at, _)| at).max().unwrap();
        assert!(last >= SimTime::from_secs(3), "draw at {last}");
    }

    #[test]
    fn slow_draw_window_stretches_draw_delay() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(6));
        ui.add_slow_draw(SimTime::from_secs(1), SimTime::from_secs(2), 20.0);
        ui.set_text(SimTime::ZERO, "composer", "fast");
        ui.set_text(SimTime::from_millis(1100), "composer", "slow");
        let lags: Vec<SimDuration> = ui
            .camera
            .iter()
            .map(|(at, ev)| at.saturating_since(ev.changed_at))
            .collect();
        assert!(
            lags[0] < SimDuration::from_millis(60),
            "fast lag {:?}",
            lags
        );
        assert!(
            lags[1] > SimDuration::from_millis(100),
            "slow lag {:?}",
            lags
        );
    }

    #[test]
    fn revision_tracks_mutations() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(7));
        let (_, r0) = ui.observe(SimTime::ZERO);
        ui.set_text(SimTime::ZERO, "composer", "x");
        ui.set_visible(SimTime::ZERO, "feed_progress", true);
        let (_, r1) = ui.observe(SimTime::ZERO);
        assert_eq!(r1, r0 + 2);
    }

    #[test]
    fn observing_an_unchanged_tree_shares_storage() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(8));
        let (a, _) = ui.observe(SimTime::ZERO);
        let (b, _) = ui.observe(SimTime::from_secs(1));
        assert!(Arc::ptr_eq(&a.children, &b.children));
        assert!(Arc::ptr_eq(&a.children, &ui.root().children));
        assert_eq!(ui.observed_views(SimTime::from_secs(1)), a.count());
    }

    #[test]
    fn mutation_copies_only_the_path_to_the_changed_view() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(9));
        let (held, _) = ui.observe(SimTime::ZERO);
        ui.set_text(SimTime::ZERO, "item0", "edited");
        let live = ui.root();
        // The path root -> news_feed was copied for the write...
        assert!(!Arc::ptr_eq(&held.children, &live.children));
        let feed = |v: &View| v.find("news_feed").unwrap().children.clone();
        assert!(!Arc::ptr_eq(&feed(&held), &feed(live)));
        // ...while the held snapshot keeps the old text.
        assert_eq!(held.find("item0").unwrap().text, "hello world");
        assert_eq!(live.find("item0").unwrap().text, "edited");
        // A sibling off the path still shares its (empty) child list.
        let composer = |v: &View| v.find("composer").unwrap().children.clone();
        assert!(Arc::ptr_eq(&composer(&held), &composer(live)));
    }

    #[test]
    fn overlapping_freezes_pin_the_tree_until_their_union_ends() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(10));
        ui.add_freeze(SimTime::from_secs(1), SimTime::from_secs(3));
        ui.add_freeze(SimTime::from_secs(2), SimTime::from_secs(5));
        let (_, rev0) = ui.observe(SimTime::from_millis(1500));
        ui.set_text(SimTime::from_millis(2500), "composer", "during");
        // [1 s, 3 s) has ended, but [2 s, 5 s) still holds the freeze.
        let (view, rev) = ui.observe(SimTime::from_millis(3500));
        assert_eq!(view.find("composer").unwrap().text, "");
        assert_eq!(rev, rev0);
        assert_eq!(ui.observed_revision(SimTime::from_millis(3500)), rev0);
        let (view, rev) = ui.observe(SimTime::from_secs(5));
        assert_eq!(view.find("composer").unwrap().text, "during");
        assert_eq!(rev, rev0 + 1);
        let (drawn, _) = ui.camera.iter().last().unwrap();
        assert!(drawn >= SimTime::from_secs(5), "draw at {drawn}");
    }

    #[test]
    fn touching_freezes_chain_into_one() {
        let mut ui = UiTree::new(tree(), DetRng::seed_from_u64(11));
        ui.add_freeze(SimTime::from_secs(1), SimTime::from_secs(2));
        ui.add_freeze(SimTime::from_secs(2), SimTime::from_secs(4));
        let (_, rev0) = ui.observe(SimTime::from_millis(1500));
        ui.set_text(SimTime::from_millis(1700), "composer", "during");
        assert_eq!(ui.observed_revision(SimTime::from_secs(2)), rev0);
        assert_eq!(ui.observed_revision(SimTime::from_millis(3999)), rev0);
        assert_eq!(ui.observed_revision(SimTime::from_secs(4)), rev0 + 1);
    }
}
