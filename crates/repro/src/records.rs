//! [`harness::Record`] implementations for every experiment row type, so
//! each campaign can be written as a machine-readable JSON report
//! (`repro … --json <dir>`). A row's text is its `Display` output, which
//! the CLI prints; `sample_sets()` feeds the report's cross-job aggregates
//! (merged summaries + exact CDFs).

use harness::{Json, Record};
use simcore::Summary;

use crate::ablation::AblationPart;
use crate::exp71::Table3Part;
use crate::exp72::PostRun;
use crate::exp73::BackgroundRow;
use crate::exp74::UpdateRun;
use crate::exp75::{SweepPoint, ThroughputTrace, WatchRun};
use crate::exp76::AdRun;
use crate::exp77::PageLoadRun;

fn summary_json(s: &Summary) -> Json {
    Json::obj([
        ("n", Json::from(s.n)),
        ("mean", Json::Num(s.mean)),
        ("std_dev", Json::Num(s.std_dev)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("median", Json::Num(s.median)),
    ])
}

impl Record for Table3Part {
    fn to_json(&self) -> Json {
        match self {
            Table3Part::Bars(bars) => Json::obj([(
                "bars",
                Json::arr(bars.iter().map(|b| {
                    Json::obj([
                        ("metric", Json::from(b.metric)),
                        ("n", Json::from(b.n)),
                        ("mean_error_ms", Json::Num(b.mean_error_ms)),
                        ("max_error_ms", Json::Num(b.max_error_ms)),
                        ("max_ratio_percent", Json::Num(b.max_ratio_percent)),
                    ])
                })),
            )]),
            Table3Part::Overhead(o) => {
                let score = |s: &qoe_doctor::analyze::crosslayer::MappingScore| {
                    Json::obj([
                        ("mapped_ratio", Json::Num(s.mapped_ratio)),
                        ("correct_ratio", Json::Num(s.correct_ratio)),
                    ])
                };
                Json::obj([
                    ("ul_mapping", score(&o.ul_mapping)),
                    ("dl_mapping", score(&o.dl_mapping)),
                    ("cpu_overhead_percent", Json::Num(o.cpu_overhead_percent)),
                ])
            }
        }
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        match self {
            Table3Part::Bars(bars) => {
                vec![(
                    "mean_error_ms",
                    bars.iter().map(|b| b.mean_error_ms).collect(),
                )]
            }
            Table3Part::Overhead(_) => Vec::new(),
        }
    }
}

impl Record for PostRun {
    fn to_json(&self) -> Json {
        let f = &self.fig7;
        let fig8 = match &self.fig8 {
            None => Json::Null,
            Some(p) => Json::obj([
                ("ip_to_rlc_s", Json::Num(p.ip_to_rlc)),
                ("rlc_tx_s", Json::Num(p.rlc_tx)),
                ("ota_s", Json::Num(p.ota)),
                ("other_s", Json::Num(p.other)),
                ("total_s", Json::Num(p.total)),
                ("ul_pdus_per_post", Json::Num(p.ul_pdus_per_post)),
                ("ul_packets_per_post", Json::Num(p.ul_packets_per_post)),
            ]),
        };
        Json::obj([
            ("net", Json::from(f.net.as_str())),
            ("action", Json::from(f.action)),
            ("user_s", summary_json(&f.user)),
            ("network_s", summary_json(&f.network)),
            ("device_s", summary_json(&f.device)),
            ("response_outside", Json::Num(f.response_outside)),
            ("fig8", fig8),
        ])
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![("user_latency_s", vec![self.fig7.user.mean])]
    }
}

impl Record for BackgroundRow {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("ul_kb", Json::Num(self.ul_kb)),
            ("dl_kb", Json::Num(self.dl_kb)),
            ("non_tail_j", Json::Num(self.non_tail_j)),
            ("tail_j", Json::Num(self.tail_j)),
        ])
    }
}

impl Record for UpdateRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("latencies_s", Json::nums(&self.latencies)),
            ("device_s", summary_json(&self.device)),
            ("network_s", summary_json(&self.network)),
            ("ul_bytes", Json::Num(self.ul_bytes)),
            ("dl_bytes", Json::Num(self.dl_bytes)),
        ])
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![("update_latency_s", self.latencies.clone())]
    }
}

impl Record for WatchRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            (
                "videos",
                Json::arr(self.videos.iter().map(|v| {
                    Json::obj([
                        ("name", Json::from(v.name.as_str())),
                        ("initial_loading_s", Json::Num(v.initial_loading)),
                        ("rebuffering", Json::Num(v.rebuffering)),
                        ("finished", Json::from(v.finished)),
                    ])
                })),
            ),
        ])
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![
            (
                "initial_loading_s",
                self.videos.iter().map(|v| v.initial_loading).collect(),
            ),
            (
                "rebuffering_ratio",
                self.videos.iter().map(|v| v.rebuffering).collect(),
            ),
        ]
    }
}

impl Record for ThroughputTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("mean_bps", Json::Num(self.mean_bps)),
            ("std_bps", Json::Num(self.std_bps)),
            ("retransmissions", Json::from(self.retransmissions as u64)),
            ("series_bps", Json::nums(&self.series)),
        ])
    }
}

impl Record for SweepPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("rate_bps", Json::Num(self.rate_bps)),
            ("rebuffering", Json::Num(self.rebuffering)),
            ("initial_loading_s", Json::Num(self.initial_loading)),
        ])
    }
}

impl Record for AdRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::from(self.label.as_str())),
            ("with_ad", Json::from(self.with_ad)),
            ("skipped", Json::from(self.skipped)),
            ("ad_loading_s", summary_json(&self.ad_loading)),
            ("main_loading_s", summary_json(&self.main_loading)),
            ("total_loading_s", summary_json(&self.total_loading)),
        ])
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![("total_loading_s", vec![self.total_loading.mean])]
    }
}

impl Record for PageLoadRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("browser", Json::from(self.browser)),
            ("net", Json::from(self.net.as_str())),
            ("loads_s", summary_json(&self.loads)),
            (
                "rrc_transitions_per_load",
                Json::Num(self.rrc_transitions_per_load),
            ),
        ])
    }

    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        vec![("page_load_s", vec![self.loads.mean])]
    }
}

impl Record for AblationPart {
    fn to_json(&self) -> Json {
        match self {
            AblationPart::Mapper(rows) => Json::obj([(
                "mapper",
                Json::arr(rows.iter().map(|r| {
                    Json::obj([
                        ("config", Json::from(r.config)),
                        ("ul_mapped", Json::Num(r.ul.mapped_ratio)),
                        ("ul_correct", Json::Num(r.ul.correct_ratio)),
                        ("dl_mapped", Json::Num(r.dl.mapped_ratio)),
                        ("dl_correct", Json::Num(r.dl.correct_ratio)),
                    ])
                })),
            )]),
            AblationPart::Calibration(r) => Json::obj([(
                "calibration",
                Json::obj([
                    ("n", Json::from(r.n)),
                    ("raw_err_ms", Json::Num(r.raw_err_ms)),
                    ("calibrated_err_ms", Json::Num(r.calibrated_err_ms)),
                ]),
            )]),
            AblationPart::Discipline(rows) => Json::obj([(
                "discipline",
                Json::arr(rows.iter().map(|r| {
                    Json::obj([
                        ("label", Json::from(r.label)),
                        ("mean_bps", Json::Num(r.mean_bps)),
                        ("std_bps", Json::Num(r.std_bps)),
                        ("retx", Json::from(r.retx as u64)),
                        ("rebuffering", Json::Num(r.rebuffering)),
                    ])
                })),
            )]),
        }
    }
}
