//! One benchmark per reproduced table/figure: each runs the corresponding
//! §7 experiment at reduced scale. Besides timing the end-to-end pipeline
//! (scenario assembly → replay → collection → analysis), these guard
//! against regressions that would silently blow up an experiment (event
//! cascades, livelocks, runaway logs).

use criterion::{criterion_group, criterion_main, Criterion};
use harness::StageMode;
use repro::exp72::PostKind;
use repro::NetKind;

fn cfg(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("experiments");
    g.sample_size(10);
    g
}

fn bench_table3_accuracy(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("table3_fig6_accuracy", |b| {
        b.iter(|| {
            repro::exp71::staged(3, 42)
                .into_campaign(&StageMode::Inline)
                .run(1)
                .into_outputs()
                .len()
        })
    });
    g.finish();
}

fn bench_fig7_posts(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("fig7_status_posts_lte", |b| {
        b.iter(|| {
            repro::exp72::run_posts(PostKind::Status, NetKind::Lte, 3, 42)
                .behavior
                .len()
        })
    });
    g.bench_function("fig8_photo_posts_3g", |b| {
        b.iter(|| {
            repro::exp72::run_posts(PostKind::Photos, NetKind::Umts3g, 2, 42)
                .behavior
                .len()
        })
    });
    g.finish();
}

fn bench_fig10_background(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("fig10_background_16h", |b| {
        b.iter(|| {
            repro::exp73::run_config(
                "bench",
                Some(simcore::SimDuration::from_mins(30)),
                Some(simcore::SimDuration::from_hours(1)),
                repro::exp73::RUN_HOURS,
                42,
            )
            .total_kb()
        })
    });
    g.finish();
}

fn bench_fig14_updates(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("fig14_listview_updates_lte", |b| {
        b.iter(|| {
            repro::exp74::run_config(device::apps::FbVersion::ListView50, NetKind::Lte, 3, 42)
                .latencies
                .len()
        })
    });
    g.bench_function("fig14_webview_updates_lte", |b| {
        b.iter(|| {
            repro::exp74::run_config(device::apps::FbVersion::WebView18, NetKind::Lte, 3, 42)
                .latencies
                .len()
        })
    });
    g.finish();
}

fn bench_fig17_throttling(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("fig17_unthrottled_lte_watch", |b| {
        b.iter(|| repro::exp75::run_watch(NetKind::Lte, 2, 42).videos.len())
    });
    g.bench_function("fig17_policed_lte_watch", |b| {
        b.iter(|| {
            repro::exp75::run_watch(NetKind::LteThrottled(128e3), 1, 42)
                .videos
                .len()
        })
    });
    g.finish();
}

fn bench_exp76_ads(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("exp76_ad_run_lte", |b| {
        b.iter(|| {
            repro::exp76::run_config(NetKind::Lte, true, true, 1, 42)
                .total_loading
                .n
        })
    });
    g.finish();
}

fn bench_exp77_pages(c: &mut Criterion) {
    let mut g = cfg(c);
    g.bench_function("exp77_page_loads_3g", |b| {
        b.iter(|| {
            repro::exp77::run_config(
                device::apps::BrowserConfig::chrome(),
                NetKind::Umts3g,
                2,
                42,
            )
            .loads
            .n
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_table3_accuracy,
    bench_fig7_posts,
    bench_fig10_background,
    bench_fig14_updates,
    bench_fig17_throttling,
    bench_exp76_ads,
    bench_exp77_pages
);
criterion_main!(benches);
