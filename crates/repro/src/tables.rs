//! Tables 1 and 2 — the descriptive tables of the paper, as static text.
//! The Table 1 behaviours are replayed by `qoe_doctor::replay`.

/// One row of Table 1: a replayed behaviour and its measurement anchors.
#[derive(Debug, Clone, Copy)]
pub struct ReplayRow {
    /// Application.
    pub app: &'static str,
    /// Replayed user behaviour.
    pub behavior: &'static str,
    /// Measured user-perceived latency.
    pub metric: &'static str,
    /// Measurement start anchor.
    pub start: &'static str,
    /// Measurement end anchor.
    pub end: &'static str,
}

/// Table 1 of the paper, as implemented by this reproduction.
pub fn table1() -> Vec<ReplayRow> {
    vec![
        ReplayRow {
            app: "Facebook",
            behavior: "Upload post",
            metric: "Post uploading time",
            start: "Press \"post\" button",
            end: "Posted content shown in ListView",
        },
        ReplayRow {
            app: "Facebook",
            behavior: "Pull-to-update",
            metric: "News feed list updating time",
            start: "Progress bar appears",
            end: "Progress bar disappears",
        },
        ReplayRow {
            app: "YouTube",
            behavior: "Watch video",
            metric: "Initial loading time",
            start: "Click on the video entry",
            end: "Progress bar disappears",
        },
        ReplayRow {
            app: "YouTube",
            behavior: "Watch video",
            metric: "Rebuffering time",
            start: "Progress bar appears",
            end: "Progress bar disappears",
        },
        ReplayRow {
            app: "Web browsing",
            behavior: "Load web page",
            metric: "Web page loading time",
            start: "Press ENTER in URL bar",
            end: "Progress bar disappears",
        },
    ]
}

/// One row of Table 2: an experiment and what it studies.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentRow {
    /// Paper section.
    pub section: &'static str,
    /// Goal.
    pub goal: &'static str,
    /// Relevant factors.
    pub factors: &'static str,
    /// Application.
    pub app: &'static str,
    /// The `repro` subcommand(s) that regenerate it.
    pub command: &'static str,
}

/// Table 2 of the paper, extended with the regenerating command.
pub fn table2() -> Vec<ExperimentRow> {
    vec![
        ExperimentRow {
            section: "7.1",
            goal: "Tool accuracy and overhead",
            factors: "—",
            app: "all",
            command: "repro table3 / repro fig6",
        },
        ExperimentRow {
            section: "7.2",
            goal: "Device and network delay on the critical path",
            factors: "Network condition, app",
            app: "Facebook",
            command: "repro fig7 / repro fig8",
        },
        ExperimentRow {
            section: "7.3",
            goal: "Data and energy consumption during app idle time",
            factors: "Network condition, app",
            app: "Facebook",
            command: "repro fig10 / repro fig12",
        },
        ExperimentRow {
            section: "7.4",
            goal: "Impact of app design choices on user-perceived latency",
            factors: "Network condition, app",
            app: "Facebook",
            command: "repro fig14",
        },
        ExperimentRow {
            section: "7.5",
            goal: "Impact of carrier throttling on user-perceived latency",
            factors: "Network condition, carrier",
            app: "YouTube",
            command: "repro fig17 / fig18 / fig19",
        },
        ExperimentRow {
            section: "7.6",
            goal: "Impact of video ads on user-perceived latency",
            factors: "Network condition, app",
            app: "YouTube",
            command: "repro exp76",
        },
        ExperimentRow {
            section: "7.7",
            goal: "Impact of the RRC state machine design",
            factors: "Network condition, carrier",
            app: "Web browsers",
            command: "repro exp77",
        },
    ]
}

/// Print Table 1.
pub fn print_table1() {
    println!(
        "{:<12} {:<16} {:<30} {:<26} End",
        "Application", "Behavior", "Metric", "Start"
    );
    for r in table1() {
        println!(
            "{:<12} {:<16} {:<30} {:<26} {}",
            r.app, r.behavior, r.metric, r.start, r.end
        );
    }
}

/// Print Table 2.
pub fn print_table2() {
    println!(
        "{:<6} {:<52} {:<26} {:<12} Regenerate",
        "§", "Goal", "Factors", "App"
    );
    for r in table2() {
        println!(
            "{:<6} {:<52} {:<26} {:<12} {}",
            r.section, r.goal, r.factors, r.app, r.command
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_covers_all_five_metrics() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().any(|r| r.metric.contains("Rebuffering")));
        assert!(rows.iter().any(|r| r.app == "Web browsing"));
    }

    #[test]
    fn table2_covers_all_experiments() {
        let rows = table2();
        assert_eq!(rows.len(), 7);
        for section in ["7.1", "7.2", "7.3", "7.4", "7.5", "7.6", "7.7"] {
            assert!(
                rows.iter().any(|r| r.section == section),
                "missing {section}"
            );
        }
    }
}
