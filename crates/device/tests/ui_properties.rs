//! Property-based tests for the UI layout tree.

use std::sync::Arc;

use device::ui::{UiTree, View, ViewSignature};
use device::{App, AppCx, NetAttachment, Phone, UiEvent};
use netstack::dns::DNS_PORT;
use netstack::{IpAddr, SocketAddr};
use proptest::prelude::*;
use simcore::{DetRng, SimDuration, SimTime};

/// Deep-copied reference model of a view tree: plain owned children, so
/// nothing is shared with the copy-on-write tree under test.
#[derive(Debug, Clone, PartialEq)]
struct Model {
    class: String,
    id: String,
    text: String,
    visible: bool,
    children: Vec<Model>,
}

impl Model {
    fn of(v: &View) -> Model {
        Model {
            class: v.class.clone(),
            id: v.id.clone(),
            text: v.text.clone(),
            visible: v.visible,
            children: v.children.iter().map(Model::of).collect(),
        }
    }

    fn leaf(class: &str, id: &str, text: &str) -> Model {
        Model::of(&View::new(class, id).with_text(text))
    }

    /// First match depth-first, as `View::find_mut` promises.
    fn find_mut(&mut self, id: &str) -> Option<&mut Model> {
        if self.id == id {
            return Some(self);
        }
        self.children.iter_mut().find_map(|c| c.find_mut(id))
    }

    fn ids(&self, out: &mut Vec<String>) {
        out.push(self.id.clone());
        for c in &self.children {
            c.ids(out);
        }
    }
}

/// The model's history: the tree after each mutation, with its time.
struct History {
    initial: Model,
    after: Vec<(SimTime, Model)>,
    /// Freeze windows merged into disjoint intervals (touching ones join).
    frozen: Vec<(SimTime, SimTime)>,
}

impl History {
    fn new(initial: Model, mut windows: Vec<(SimTime, SimTime)>) -> History {
        windows.sort();
        let mut frozen: Vec<(SimTime, SimTime)> = Vec::new();
        for (from, until) in windows {
            match frozen.last_mut() {
                Some(last) if from <= last.1 => last.1 = last.1.max(until),
                _ => frozen.push((from, until)),
            }
        }
        History {
            initial,
            after: Vec::new(),
            frozen,
        }
    }

    fn live(&self) -> &Model {
        self.after.last().map_or(&self.initial, |(_, m)| m)
    }

    /// What an observer should see at `now`, and its revision: inside a
    /// freeze, the tree as it stood before the freeze's first instant.
    fn observed(&self, now: SimTime) -> (&Model, u64) {
        let cutoff = self
            .frozen
            .iter()
            .find(|(from, until)| *from <= now && now < *until)
            .map(|(from, _)| *from);
        let applied = match cutoff {
            Some(from) => self.after.iter().take_while(|(at, _)| *at < from).count(),
            None => self.after.len(),
        };
        let tree = match applied {
            0 => &self.initial,
            n => &self.after[n - 1].1,
        };
        (tree, applied as u64)
    }
}

/// A foreground app that does nothing, so a test drives the UI tree alone.
struct Idle;

impl App for Idle {
    fn name(&self) -> &'static str {
        "idle"
    }
    fn start(&mut self, _cx: &mut AppCx) {}
    fn on_ui_event(&mut self, _ev: &UiEvent, _cx: &mut AppCx) {}
    fn tick(&mut self, _cx: &mut AppCx) {}
    fn next_wake(&self) -> Option<SimTime> {
        None
    }
}

/// A phone showing `root`, never ticked: only its UI tree and parse
/// accounting are exercised.
fn phone_showing(root: &View, seed: u64) -> Phone {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut phone = Phone::new(
        IpAddr::new(10, 0, 0, 2),
        SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT),
        NetAttachment::wifi(&mut rng),
        Box::new(Idle),
        rng.fork(2),
    );
    phone.ui = UiTree::new(root.clone(), rng.fork(3));
    phone
}

/// Build a random view tree from a node-count budget.
fn arb_view(depth: u32) -> impl Strategy<Value = View> {
    let leaf = (0u32..1000, any::<bool>()).prop_map(|(n, visible)| {
        let mut v = View::new("TextView", &format!("leaf{n}")).with_text(&format!("text{n}"));
        v.visible = visible;
        v
    });
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (0u32..1000, prop::collection::vec(inner, 0..4)).prop_map(|(n, children)| {
            let mut v = View::new("LinearLayout", &format!("group{n}"));
            v.children = Arc::new(children);
            v
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `count` equals the number of nodes reachable by traversal.
    #[test]
    fn count_matches_traversal(root in arb_view(3)) {
        fn walk(v: &View) -> usize {
            1 + v.children.iter().map(walk).sum::<usize>()
        }
        prop_assert_eq!(root.count(), walk(&root));
    }

    /// Every node found by id satisfies the signature forms, and ids that
    /// exist are always findable.
    #[test]
    fn find_and_signature_agree(root in arb_view(3)) {
        fn collect_ids(v: &View, out: &mut Vec<String>) {
            out.push(v.id.clone());
            for c in v.children.iter() {
                collect_ids(c, out);
            }
        }
        let mut ids = Vec::new();
        collect_ids(&root, &mut ids);
        for id in ids.iter().take(16) {
            let by_find = root.find(id);
            prop_assert!(by_find.is_some());
            let by_sig = root.find_signature(&ViewSignature::by_id(id));
            prop_assert!(by_sig.is_some());
            prop_assert_eq!(&by_find.unwrap().id, &by_sig.unwrap().id);
        }
        prop_assert!(root.find("definitely-not-a-real-id").is_none());
    }

    /// `any_text_contains` is exactly "some node's text contains needle".
    #[test]
    fn text_search_is_exhaustive(root in arb_view(3), probe in 0u32..1200) {
        fn any_manual(v: &View, needle: &str) -> bool {
            v.text.contains(needle) || v.children.iter().any(|c| any_manual(c, needle))
        }
        let needle = format!("text{probe}");
        prop_assert_eq!(root.any_text_contains(&needle), any_manual(&root, &needle));
    }

    /// Camera draw times are monotone and each records its `t_ui`, whatever
    /// the mutation order.
    #[test]
    fn camera_times_are_monotone(steps in prop::collection::vec(0u64..10_000, 1..60)) {
        let mut times = steps.clone();
        times.sort_unstable();
        let root = View::new("FrameLayout", "root")
            .with_child(View::new("TextView", "label"));
        let mut ui = UiTree::new(root, DetRng::seed_from_u64(3));
        for (i, t_ms) in times.iter().enumerate() {
            ui.set_text(SimTime::from_millis(*t_ms), "label", &format!("v{i}"));
        }
        let draws: Vec<SimTime> = ui.camera.iter().map(|(at, _)| at).collect();
        prop_assert_eq!(draws.len(), times.len());
        prop_assert!(draws.windows(2).all(|w| w[0] <= w[1]));
        for ((at, ev), t_ms) in ui.camera.iter().zip(times.iter()) {
            prop_assert_eq!(ev.changed_at, SimTime::from_millis(*t_ms));
            prop_assert!(at >= ev.changed_at);
        }
    }

    /// Snapshots behave as deep copies: later mutations never show through.
    #[test]
    fn snapshots_are_deep_copies(texts in prop::collection::vec("[a-z]{1,8}", 1..10)) {
        let root = View::new("FrameLayout", "root")
            .with_child(View::new("TextView", "label"));
        let mut ui = UiTree::new(root, DetRng::seed_from_u64(4));
        let mut snaps = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            ui.set_text(SimTime::from_millis(i as u64), "label", text);
            snaps.push(ui.snapshot());
        }
        for (snap, text) in snaps.iter().zip(texts.iter()) {
            prop_assert_eq!(&snap.find("label").unwrap().text, text);
        }
    }

    /// Random `set_text`/`set_visible`/`prepend_item`/`mutate` sequences
    /// with snapshots taken in between, checked against the deep-copied
    /// model: every held snapshot keeps the tree of its own instant, the
    /// revision-only read agrees with `observe`, and the view count that
    /// prices a parse is `View::count()` of the snapshot it returns.
    #[test]
    fn snapshots_survive_copy_on_write(
        root in arb_view(3),
        ops in prop::collection::vec((0u8..6, 0usize..64, 0u32..1000, 0u64..300), 1..48),
        windows in prop::collection::vec((0u64..6000, 1u64..2000), 0..3),
    ) {
        let windows: Vec<(SimTime, SimTime)> = windows
            .iter()
            .map(|(from, len)| (SimTime::from_millis(*from), SimTime::from_millis(from + len)))
            .collect();
        let mut phone = phone_showing(&root, 9);
        // A twin phone on the same seed prices each parse by hand, so the
        // parse's jitter draw and view count are checked exactly.
        let mut twin = phone_showing(&root, 9);
        for (from, until) in &windows {
            phone.ui.add_freeze(*from, *until);
            twin.ui.add_freeze(*from, *until);
        }
        let mut model = History::new(Model::of(&root), windows);
        // Each held snapshot with a deep copy of the model taken at its instant.
        let mut held: Vec<(View, Model)> = Vec::new();
        let mut now = SimTime::ZERO;
        for (kind, target, arg, dt_ms) in ops {
            now = now + SimDuration::from_millis(dt_ms);
            let mut ids = Vec::new();
            model.live().ids(&mut ids);
            let id = ids[target % ids.len()].clone();
            let text = format!("t{arg}");
            let mut next = model.live().clone();
            let mutated = match kind {
                0 => {
                    for ui in [&mut phone.ui, &mut twin.ui] {
                        ui.set_text(now, &id, &text);
                    }
                    if let Some(v) = next.find_mut(&id) {
                        v.text = text;
                    }
                    true
                }
                1 => {
                    let visible = arg % 2 == 0;
                    for ui in [&mut phone.ui, &mut twin.ui] {
                        ui.set_visible(now, &id, visible);
                    }
                    if let Some(v) = next.find_mut(&id) {
                        v.visible = visible;
                    }
                    true
                }
                2 => {
                    for ui in [&mut phone.ui, &mut twin.ui] {
                        ui.prepend_item(now, &id, "TextView", &text);
                    }
                    if let Some(v) = next.find_mut(&id) {
                        let item_id = format!("{id}_item_{}", text.len());
                        v.children.insert(0, Model::leaf("TextView", &item_id, &text));
                    }
                    true
                }
                3 => {
                    // Replace a container's children outright.
                    let fresh: Vec<View> = (0..arg % 4)
                        .map(|i| View::new("TextView", &format!("new{arg}_{i}")).with_text(&text))
                        .collect();
                    for ui in [&mut phone.ui, &mut twin.ui] {
                        let fresh = fresh.clone();
                        ui.mutate(now, "replace", |root| {
                            if let Some(v) = root.find_mut(&id) {
                                v.children = Arc::new(fresh);
                            }
                        });
                    }
                    if let Some(v) = next.find_mut(&id) {
                        v.children = fresh.iter().map(Model::of).collect();
                    }
                    true
                }
                4 => {
                    let (view, cost) = phone.parse_ui(now);
                    let (expect_view, _) = twin.ui.observe(now);
                    let mean = twin.parse_base + twin.parse_per_view * expect_view.count() as u64;
                    prop_assert_eq!(cost, twin.rng.jittered(mean, 0.25));
                    prop_assert_eq!(&view, &expect_view);
                    held.push((view, model.observed(now).0.clone()));
                    false
                }
                _ => {
                    held.push((phone.ui.observe(now).0, model.observed(now).0.clone()));
                    false
                }
            };
            if mutated {
                model.after.push((now, next));
            }
            prop_assert_eq!(&Model::of(phone.ui.root()), model.live());
            let (seen, rev) = phone.ui.observe(now);
            let (expect, expect_rev) = model.observed(now);
            prop_assert_eq!(&Model::of(&seen), expect);
            prop_assert_eq!(rev, expect_rev);
            prop_assert_eq!(phone.ui_revision(now), rev);
            prop_assert_eq!(phone.ui.observed_views(now), seen.count());
            for (snap, reference) in &held {
                prop_assert_eq!(&Model::of(snap), reference);
            }
        }
    }
}
