//! Smoke tests for every experiment module at minimal scale: each one must
//! run to completion and reproduce its headline *direction* (who wins), if
//! not the full magnitude. These guard the calibrated shape targets of
//! DESIGN.md against regressions.

use harness::StageMode;
use repro::ablation::AblationPart;
use repro::exp72::PostKind;
use repro::NetKind;

#[test]
fn exp72_photos_slower_than_status_and_3g_slower_than_lte() {
    let status = repro::exp72::run_posts(PostKind::Status, NetKind::Lte, 2, 1);
    let photos_lte = repro::exp72::run_posts(PostKind::Photos, NetKind::Lte, 2, 2);
    let photos_3g = repro::exp72::run_posts(PostKind::Photos, NetKind::Umts3g, 2, 3);
    let mean = |col: &qoe_doctor::Collection, action: &str| {
        qoe_doctor::analyze::app::latency_summary(&col.behavior, action).mean
    };
    let s = mean(&status, "upload_post:status");
    let pl = mean(&photos_lte, "upload_post:photos");
    let p3 = mean(&photos_3g, "upload_post:photos");
    assert!(s > 0.3 && s < 2.0, "status {s}");
    assert!(pl > 2.0, "photos lte {pl}");
    assert!(p3 > pl, "3g {p3} vs lte {pl}");
}

#[test]
fn exp72_fig8_rlc_dominates_3g() {
    let col = repro::exp72::run_posts(PostKind::Photos, NetKind::Umts3g, 2, 4);
    let row = repro::exp72::photo_net_breakdown(&col, "3G").expect("breakdown");
    assert!(row.rlc_tx > row.ip_to_rlc, "{row}");
    assert!(row.rlc_tx > row.ota, "{row}");
    assert!(row.ul_pdus_per_post > 5_000.0, "{row}");
}

#[test]
fn exp73_background_data_scales_with_push_frequency() {
    let fast = repro::exp73::run_config(
        "fast",
        Some(simcore::SimDuration::from_mins(10)),
        Some(simcore::SimDuration::from_hours(1)),
        repro::exp73::RUN_HOURS,
        5,
    );
    let none = repro::exp73::run_config(
        "none",
        None,
        Some(simcore::SimDuration::from_hours(1)),
        repro::exp73::RUN_HOURS,
        5,
    );
    assert!(fast.total_kb() > 2.0 * none.total_kb(), "{fast} vs {none}");
    assert!(fast.total_j() > none.total_j());
    assert!(
        none.total_kb() > 50.0,
        "baseline refresh traffic exists: {none}"
    );
}

#[test]
fn exp74_webview_updates_slower_and_heavier() {
    use device::apps::FbVersion;
    let lv = repro::exp74::run_config(FbVersion::ListView50, NetKind::Lte, 3, 6);
    let wv = repro::exp74::run_config(FbVersion::WebView18, NetKind::Lte, 3, 7);
    assert!(!lv.latencies.is_empty() && !wv.latencies.is_empty());
    assert!(
        wv.cdf().quantile(0.5) > 2.0 * lv.cdf().quantile(0.5),
        "{wv} vs {lv}"
    );
    assert!(wv.dl_bytes > 3.0 * lv.dl_bytes, "{wv} vs {lv}");
}

#[test]
fn exp75_throttling_degrades_qoe() {
    let free = repro::exp75::run_watch(NetKind::Lte, 2, 8);
    let throttled = repro::exp75::run_watch(NetKind::LteThrottled(128e3), 1, 8);
    let free_rebuf: f64 =
        free.videos.iter().map(|v| v.rebuffering).sum::<f64>() / free.videos.len() as f64;
    let thr_rebuf: f64 =
        throttled.videos.iter().map(|v| v.rebuffering).sum::<f64>() / throttled.videos.len() as f64;
    assert!(free_rebuf < 0.05, "unthrottled rebuffer {free_rebuf}");
    assert!(thr_rebuf > 0.3, "throttled rebuffer {thr_rebuf}");
    assert!(
        throttled.videos[0].initial_loading > 4.0 * free.videos[0].initial_loading,
        "{} vs {}",
        throttled.videos[0].initial_loading,
        free.videos[0].initial_loading
    );
}

#[test]
fn exp75_fig18_shaping_smoother_than_policing() {
    let traces = repro::exp75::staged_fig18(9)
        .into_campaign(&StageMode::Inline)
        .run(1)
        .into_outputs();
    let shaped = &traces[0];
    let policed = &traces[1];
    assert!(shaped.label.contains("shaped"));
    assert!(policed.label.contains("policed"));
    // Shaping: higher, steadier plateau; policing: more retransmissions.
    assert!(shaped.mean_bps > policed.mean_bps, "{shaped} vs {policed}");
    assert!(
        shaped.std_bps / shaped.mean_bps < policed.std_bps / policed.mean_bps,
        "coefficient of variation: {shaped} vs {policed}"
    );
    assert!(
        policed.retransmissions > shaped.retransmissions,
        "{shaped} vs {policed}"
    );
}

#[test]
fn exp76_ads_double_total_loading_on_3g_when_watched() {
    let no_ad = repro::exp76::run_config(NetKind::Umts3g, false, false, 2, 10);
    let watched = repro::exp76::run_config(NetKind::Umts3g, true, false, 2, 10);
    let skipped = repro::exp76::run_config(NetKind::Umts3g, true, true, 2, 10);
    assert!(
        watched.total_loading.mean > 1.5 * no_ad.total_loading.mean,
        "watched {} vs no-ad {}",
        watched.total_loading.mean,
        no_ad.total_loading.mean
    );
    // Skipping keeps the radio warm: the main video loads faster than
    // standalone.
    assert!(
        skipped.main_loading.mean < 0.7 * no_ad.main_loading.mean,
        "skipped main {} vs standalone {}",
        skipped.main_loading.mean,
        no_ad.main_loading.mean
    );
}

#[test]
fn exp77_simplified_machine_reduces_page_loads_15_to_30_percent() {
    let rows = repro::exp77::staged(4, 11)
        .into_campaign(&StageMode::Inline)
        .run(1)
        .into_outputs();
    let reduction = repro::exp77::reduction_percent(&rows);
    assert!(
        (15.0..=30.0).contains(&reduction),
        "reduction {reduction}% (paper: 22.8%)"
    );
    // LTE is fastest everywhere.
    for browser in ["chrome", "firefox", "internet"] {
        let lte = rows
            .iter()
            .find(|r| r.browser == browser && r.net == "LTE")
            .unwrap()
            .loads
            .mean;
        let g3 = rows
            .iter()
            .find(|r| r.browser == browser && r.net == "3G")
            .unwrap()
            .loads
            .mean;
        assert!(lte < g3, "{browser}: lte {lte} vs 3g {g3}");
    }
}

/// Run the ablation campaign inline and return its outputs in report
/// order: mapper, calibration, discipline.
fn ablation_parts(mapper_reps: usize, cal_reps: usize, seed: u64) -> Vec<AblationPart> {
    repro::ablation::staged(mapper_reps, cal_reps, 128e3, seed)
        .into_campaign(&StageMode::Inline)
        .run(1)
        .into_outputs()
}

#[test]
fn ablation_gap_credit_prevents_cascade() {
    let AblationPart::Mapper(rows) = &ablation_parts(2, 1, 12)[0] else {
        panic!("first ablation job is the mapper study");
    };
    let full = rows.iter().find(|r| r.config.starts_with("full")).unwrap();
    let no_gap = rows.iter().find(|r| r.config == "no gap credit").unwrap();
    assert!(full.dl.correct_ratio > 0.95, "{full}");
    assert!(no_gap.dl.correct_ratio < 0.5, "{no_gap}");
}

#[test]
fn ablation_calibration_reduces_error() {
    let AblationPart::Calibration(row) = &ablation_parts(1, 6, 13)[1] else {
        panic!("second ablation job is the calibration study");
    };
    assert!(row.n >= 4);
    assert!(
        row.calibrated_err_ms < row.raw_err_ms,
        "calibrated {} vs raw {}",
        row.calibrated_err_ms,
        row.raw_err_ms
    );
}

#[test]
fn tables_print_without_panicking() {
    repro::tables::print_table1();
    repro::tables::print_table2();
}
