//! Machine-readable campaign reports.
//!
//! [`write_report`] turns a [`CampaignRun`] into a pretty-printed JSON file
//! under a results directory: a run journal (per-job seed, wall-clock,
//! simulated time, outcome, human row, structured data) plus cross-job
//! aggregates. Aggregates are built with `simcore`'s merge helpers —
//! [`Summary::merge`] for pooled moments and [`Cdf::merge`] for exact
//! quantiles — over the sample sets each row exposes.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use simcore::{Cdf, Summary};

use crate::campaign::{CampaignRun, Outcome};
use crate::json::Json;

/// A campaign result row that knows how to report itself. Its
/// human-readable text is its `Display` output.
pub trait Record: fmt::Display {
    /// The human-readable stdout row (deterministic): the `Display` text.
    fn row(&self) -> String {
        self.to_string()
    }

    /// Structured payload for the JSON report.
    fn to_json(&self) -> Json;

    /// Named sample sets to aggregate across all jobs of the campaign.
    /// Sets with the same name are merged (exact CDF concat + pooled
    /// summary moments) into the report's `aggregates` object.
    fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
        Vec::new()
    }
}

/// Build the full JSON document for a finished campaign.
pub fn report_json<T: Record>(run: &CampaignRun<T>) -> Json {
    let jobs = run.jobs.iter().map(|j| {
        let mut fields = vec![
            ("label".to_string(), Json::from(j.label.as_str())),
            ("seed".to_string(), Json::from(j.seed)),
            ("sim_secs".to_string(), Json::from(j.sim_secs)),
            ("wall_ms".to_string(), Json::Num(j.wall.as_secs_f64() * 1e3)),
        ];
        match &j.outcome {
            Outcome::Ok(row) => {
                fields.push(("outcome".to_string(), Json::from("ok")));
                fields.push(("row".to_string(), Json::from(row.row())));
                fields.push(("data".to_string(), row.to_json()));
            }
            Outcome::Faulted(reason) => {
                fields.push(("outcome".to_string(), Json::from("faulted")));
                fields.push(("reason".to_string(), Json::from(reason.as_str())));
            }
            Outcome::Panicked(msg) => {
                fields.push(("outcome".to_string(), Json::from("panicked")));
                fields.push(("panic".to_string(), Json::from(msg.as_str())));
            }
        }
        Json::Obj(fields)
    });

    // Gather each row's sample sets by name, preserving first-seen order.
    let mut names: Vec<&'static str> = Vec::new();
    let mut sets: Vec<(Vec<Summary>, Vec<Cdf>)> = Vec::new();
    for j in &run.jobs {
        if let Some(row) = j.outcome.ok() {
            for (name, samples) in row.sample_sets() {
                let at = match names.iter().position(|n| *n == name) {
                    Some(i) => i,
                    None => {
                        names.push(name);
                        sets.push((Vec::new(), Vec::new()));
                        names.len() - 1
                    }
                };
                // One sort serves both the summary and the CDF.
                let cdf = Cdf::from_vec(samples);
                sets[at].0.push(cdf.summary());
                sets[at].1.push(cdf);
            }
        }
    }
    let aggregates = names
        .iter()
        .zip(&sets)
        .map(|(name, (summaries, cdfs))| {
            let s = Summary::merge(summaries);
            let c = Cdf::merge(cdfs);
            let quantiles = if c.values.is_empty() {
                Json::Null
            } else {
                Json::obj([
                    ("p10", Json::Num(c.quantile(0.10))),
                    ("p50", Json::Num(c.quantile(0.50))),
                    ("p90", Json::Num(c.quantile(0.90))),
                ])
            };
            (
                name.to_string(),
                Json::obj([
                    ("n", Json::from(s.n)),
                    ("mean", Json::Num(s.mean)),
                    ("std_dev", Json::Num(s.std_dev)),
                    ("min", Json::Num(s.min)),
                    ("max", Json::Num(s.max)),
                    ("quantiles", quantiles),
                    ("cdf", Json::nums(&c.values)),
                ]),
            )
        })
        .collect();

    let mut fields = vec![
        ("campaign".to_string(), Json::from(run.name.as_str())),
        ("workers".to_string(), Json::from(run.workers)),
        (
            "wall_ms".to_string(),
            Json::Num(run.wall.as_secs_f64() * 1e3),
        ),
        ("jobs_total".to_string(), Json::from(run.jobs.len())),
        ("jobs_failed".to_string(), Json::from(run.failed())),
        ("jobs_faulted".to_string(), Json::from(run.faulted())),
    ];
    if let Some(stages) = &run.stages {
        fields.push(("stages".to_string(), stages.to_json()));
    }
    fields.push(("jobs".to_string(), Json::arr(jobs)));
    fields.push(("aggregates".to_string(), Json::Obj(aggregates)));
    Json::Obj(fields)
}

/// Write the campaign report to `<dir>/<campaign-name>.json`, creating the
/// directory if needed. Returns the path written.
pub fn write_report<T: Record>(dir: &Path, run: &CampaignRun<T>) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", run.name.replace(['/', ' '], "_")));
    std::fs::write(&path, report_json(run).pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Campaign;

    struct Row {
        value: f64,
    }

    impl fmt::Display for Row {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "value = {}", self.value)
        }
    }

    impl Record for Row {
        fn to_json(&self) -> Json {
            Json::obj([("value", Json::Num(self.value))])
        }
        fn sample_sets(&self) -> Vec<(&'static str, Vec<f64>)> {
            vec![("value", vec![self.value, self.value + 1.0])]
        }
    }

    fn sample_run(with_panic: bool) -> CampaignRun<Row> {
        let mut c: Campaign<Row> = Campaign::new("unit/test");
        c.job("a", 1, || Row { value: 1.0 });
        c.push("b".into(), 2, || Ok((Row { value: 3.0 }, Some(60.0))));
        if with_panic {
            c.job("c", 3, || panic!("kaboom"));
        }
        c.run(2)
    }

    #[test]
    fn report_shape_and_aggregates() {
        let doc = report_json(&sample_run(false)).pretty();
        assert!(doc.contains("\"campaign\": \"unit/test\""));
        assert!(doc.contains("\"jobs_failed\": 0"));
        assert!(doc.contains("\"sim_secs\": 60.0"));
        assert!(doc.contains("\"row\": \"value = 1\""));
        // Merged CDF of {1,2} ∪ {3,4}: exact, sorted.
        assert!(doc.contains("\"cdf\": [1.0, 2.0, 3.0, 4.0]"), "{doc}");
        assert!(doc.contains("\"n\": 4"));
    }

    #[test]
    fn panicked_job_lands_in_report() {
        let run = sample_run(true);
        assert_eq!(run.failed(), 1);
        let doc = report_json(&run).pretty();
        assert!(doc.contains("\"outcome\": \"panicked\""));
        assert!(doc.contains("\"panic\": \"kaboom\""));
        // Failed job contributes no samples; aggregates still exact for the rest.
        assert!(doc.contains("\"n\": 4"));
    }

    #[test]
    fn faulted_job_lands_in_report() {
        let mut c: Campaign<Row> = Campaign::new("faults/test");
        c.fallible_job("fine", 1, || Ok(Row { value: 5.0 }));
        c.fallible_job("doomed", 2, || Err("always lost".to_string()));
        let run = c.run(1);
        assert_eq!(run.faulted(), 1);
        let doc = report_json(&run).pretty();
        assert!(doc.contains("\"outcome\": \"faulted\""));
        assert!(doc.contains("\"reason\": \"always lost\""));
        assert!(doc.contains("\"jobs_faulted\": 1"));
        assert!(!doc.contains("attempts"), "{doc}");
        // The completed row still feeds the aggregates: samples {5,6}.
        assert!(doc.contains("\"n\": 2"));
    }

    #[test]
    fn write_report_creates_file() {
        let dir = std::env::temp_dir().join(format!("harness-report-{}", std::process::id()));
        let path = write_report(&dir, &sample_run(false)).unwrap();
        assert_eq!(path.file_name().unwrap(), "unit_test.json");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with('{') && body.ends_with("}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
